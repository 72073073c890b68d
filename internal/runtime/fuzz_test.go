package runtime

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzDecodeNDJSON drives arbitrary bytes through the streaming decoder
// and, line by line, through the parser and its oracle. Invariants:
// nothing ever panics; the decoder always terminates with io.EOF; every
// recoverable failure is a *LineError with a positive line number and a
// bounded, valid-UTF-8-safe payload sample; every event that does decode
// re-encodes to a line that parses back to the same type and time; and
// the parser accepts exactly the lines the oracle accepts, decoding them
// alike.
//
// Seeds live in testdata/fuzz/FuzzDecodeNDJSON; `make check` replays
// them (plus any minimized crashers checked in later) as a regression
// suite, and `make fuzz` explores new inputs.
func FuzzDecodeNDJSON(f *testing.F) {
	f.Add([]byte(`{"type":"A","time":123,"attrs":{"ID":5,"V":3.5,"user":"u1"}}`))
	f.Add([]byte("{\"type\":\"A\",\"time\":1,\"attrs\":{}}\n{\"type\":\"B\",\"attrs\":{\"ID\":2}}\n"))
	f.Add([]byte("not json\n\n{\"type\":\"C\",\"time\":9,\"attrs\":{\"x\":\"\xff\"}}\r\n"))
	f.Add([]byte(`{"type":"A","attrs":{"x":true}}`))
	f.Add([]byte(`{"type":"A","attrs":{"n":18446744073709551615}}`))
	f.Add(bytes.Repeat([]byte("x"), 300))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, line := range bytes.Split(data, []byte("\n")) {
			checkAgainstOracle(t, bytes.TrimRight(line, "\r"))
		}
		// Small maxLine so the fuzzer reaches the overlong-line path
		// without needing megabyte inputs.
		d := NewLineDecoder(bytes.NewReader(data), 256)
		for i := 0; i < 10000; i++ {
			e, hasTime, err := d.Next()
			if err == nil {
				line := EncodeEvent(e)
				e2, _, perr := parseLine(line, newInternTable())
				if perr != nil {
					t.Fatalf("re-encoded event does not parse: %v (line %q)", perr, line)
				}
				if e2.Type != e.Type || (hasTime && e2.Time != e.Time) {
					t.Fatalf("round trip changed identity: %v vs %v", e, e2)
				}
				continue
			}
			var lerr *LineError
			if errors.As(err, &lerr) {
				if lerr.Line <= 0 {
					t.Fatalf("LineError with non-positive line %d", lerr.Line)
				}
				if len(lerr.Payload) > maxPayloadSample+len("...") {
					t.Fatalf("payload sample %d bytes exceeds bound", len(lerr.Payload))
				}
				continue
			}
			if err == io.EOF {
				return
			}
			t.Fatalf("unexpected terminal error: %v", err)
		}
		t.Fatal("decoder did not terminate within 10000 iterations")
	})
}
