package checkpoint

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"cepshed/internal/event"
)

// TestWALAppendZeroAlloc pins WAL framing at zero allocations per
// record — the frame is built in the writer's free buffer and the CRC
// comes from the package table — and its bytes at the original layout:
// kind, length, CRC32-IEEE over kind+payload, payload.
func TestWALAppendZeroAlloc(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-000.wal")
	w, err := openWAL(path, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	var enc Encoder
	e := event.New("A", event.Millisecond, map[string]event.Value{"ID": event.Int(3), "V": event.Float(1.5)})
	payload := append([]byte(nil), encodeEventRecord(&enc, e)...)
	if n := testing.AllocsPerRun(500, func() {
		if err := w.append(RecEvent, payload); err != nil {
			t.Fatal(err)
		}
		if w.pendingBytes > 32<<10 {
			if err := w.flush(); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Fatalf("WAL append allocates %.1f times per record, want 0", n)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	want := []byte{RecEvent, byte(len(payload)), 0, 0, 0}
	crc := crc32.ChecksumIEEE(append([]byte{RecEvent}, payload...))
	want = append(want, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
	want = append(want, payload...)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := data[headerLen : headerLen+len(want)]; !bytes.Equal(got, want) {
		t.Fatalf("first frame on disk = %x, want %x", got, want)
	}
}
