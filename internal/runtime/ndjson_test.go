package runtime

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"cepshed/internal/engine"
	"cepshed/internal/event"
)

func TestParseEventRoundTrip(t *testing.T) {
	e := event.New("A", 1234, map[string]event.Value{
		"ID":   event.Int(7),
		"V":    event.Float(2.5),
		"W":    event.Float(2),
		"user": event.Str(`x"y`),
	})
	line := EncodeEvent(e)
	checkAgainstOracle(t, line)
	got, hasTime, err := parseLine(line, newInternTable())
	if err != nil {
		t.Fatal(err)
	}
	if !hasTime {
		t.Error("round trip lost the timestamp")
	}
	if got.Type != "A" || got.Time != 1234 {
		t.Errorf("type/time = %s/%d", got.Type, got.Time)
	}
	if got.Int("ID") != 7 || got.Float("V") != 2.5 || got.Str("user") != `x"y` {
		t.Errorf("attrs = %v", got.Attrs)
	}
	if got.Attrs["ID"].Kind != event.KindInt {
		t.Errorf("ID kind = %v, want int", got.Attrs["ID"].Kind)
	}
	for _, k := range []string{"V", "W"} {
		if got.Attrs[k].Kind != event.KindFloat {
			t.Errorf("%s kind = %v, want float", k, got.Attrs[k].Kind)
		}
	}
	if got.Float("W") != 2 {
		t.Errorf("W = %v, want 2", got.Attrs["W"])
	}
}

func TestParseEventNoTime(t *testing.T) {
	line := []byte(`{"type":"B","attrs":{"ID":1}}`)
	checkAgainstOracle(t, line)
	got, hasTime, err := parseLine(line, newInternTable())
	if err != nil {
		t.Fatal(err)
	}
	if hasTime {
		t.Error("hasTime = true for a line without time")
	}
	if got.Type != "B" || got.Int("ID") != 1 {
		t.Errorf("got %v", got)
	}
}

func TestParseEventErrors(t *testing.T) {
	for _, line := range []string{
		``,
		`{`,
		`{"attrs":{}}`,                    // no type
		`{"type":"A","attrs":{"x":true}}`, // boolean attr
		`{"type":"A","attrs":{"x":[1]}}`,  // nested attr
		`{"type":"A","bogus":1}`,          // unknown field
	} {
		if checkAgainstOracle(t, []byte(line)) {
			t.Errorf("%q decoded, want an error", line)
		}
	}
}

func TestEncodeMatch(t *testing.T) {
	a := event.New("A", 10, nil)
	a.Seq = 3
	b := event.New("B", 20, nil)
	b.Seq = 5
	m := engine.Match{Events: []*event.Event{a, b}, Detected: 20}
	line := string(EncodeMatch(1, m))
	for _, want := range []string{`"shard":1`, `"detected":20`, `"key":"3,5"`, `"seq":3`, `"type":"B"`} {
		if !strings.Contains(line, want) {
			t.Errorf("EncodeMatch output %s missing %s", line, want)
		}
	}
}

// encodeMatchRef is EncodeMatch as it was before AppendMatch replaced it
// (fmt, one json.Marshal per string, Match.Key): the oracle AppendMatch
// must equal byte for byte.
func encodeMatchRef(shard int, m engine.Match) []byte {
	var b bytes.Buffer
	writeJSONString := func(b *bytes.Buffer, s string) {
		enc, err := json.Marshal(s)
		if err != nil {
			enc = []byte(`""`)
		}
		b.Write(enc)
	}
	fmt.Fprintf(&b, `{"shard":%d,"detected":%d,"key":`, shard, int64(m.Detected))
	writeJSONString(&b, m.Key())
	b.WriteString(`,"events":[`)
	for i, e := range m.Events {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"seq":%d,"type":`, e.Seq)
		writeJSONString(&b, e.Type)
		b.WriteByte('}')
	}
	b.WriteString("]}")
	return b.Bytes()
}

// randomMatch draws 1–6 events whose type strings mix plain ASCII with
// everything encoding/json treats specially.
func randomMatch(rng *rand.Rand) engine.Match {
	pieces := []string{"A", "Bike", "trip_end", " ", "~", "\x7f", `"`, `\`, "<", ">", "&", "/",
		"\x00", "\x01", "\n", "\t", "\x1f", "\xff", "\xc3", "\xe2\x80", "\u2028", "\u2029", "é", "日本", "😀", "\ufffd"}
	m := engine.Match{Detected: event.Time(rng.Int63n(1<<50) - 1<<20)}
	for n := 1 + rng.Intn(6); n > 0; n-- {
		var typ strings.Builder
		for k := rng.Intn(5); k > 0; k-- {
			typ.WriteString(pieces[rng.Intn(len(pieces))])
		}
		e := event.New(typ.String(), 0, nil)
		e.Seq = rng.Uint64() >> uint(rng.Intn(64))
		m.Events = append(m.Events, e)
	}
	return m
}

func TestAppendMatchEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	prefix := []byte("kept:")
	for i := 0; i < 5000; i++ {
		m := randomMatch(rng)
		shard := rng.Intn(70) - 1
		want := encodeMatchRef(shard, m)
		if got := EncodeMatch(shard, m); !bytes.Equal(got, want) {
			t.Fatalf("EncodeMatch differs from the reference\n got %q\nwant %q", got, want)
		}
		got := AppendMatch(prefix[:len(prefix):len(prefix)], shard, m)
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("AppendMatch onto %q = %q, want the prefix then %q", prefix, got, want)
		}
	}
}

// With room in dst and event types that need no escaping — every type a
// query can name — encoding a match allocates nothing.
func TestAppendMatchZeroAlloc(t *testing.T) {
	var m engine.Match
	for i, typ := range []string{"BikeTrip", "BikeTrip", "BikeTrip", "BikeTrip", "BikeTrip", "B"} {
		e := event.New(typ, 0, nil)
		e.Seq = uint64(1_000_000 + i)
		m.Events = append(m.Events, e)
	}
	m.Detected = 123456789012
	dst := make([]byte, 0, 1024)
	if allocs := testing.AllocsPerRun(200, func() { dst = AppendMatch(dst[:0], 3, m) }); allocs != 0 {
		t.Errorf("AppendMatch allocates %v times per 6-event match, want 0", allocs)
	}
	if want := encodeMatchRef(3, m); !bytes.Equal(dst, want) {
		t.Errorf("AppendMatch = %q, want %q", dst, want)
	}
}

func TestLineDecoderHappyPathAndBlankLines(t *testing.T) {
	in := "{\"type\":\"A\",\"time\":1,\"attrs\":{\"ID\":1}}\n" +
		"\n" + // blank line skipped
		"   \r\n" + // whitespace-only skipped, CRLF tolerated
		"{\"type\":\"B\",\"time\":2,\"attrs\":{\"ID\":2}}\r\n" +
		"{\"type\":\"C\",\"attrs\":{}}" // final line without newline
	d := NewLineDecoder(strings.NewReader(in), 0)
	var types []string
	for {
		e, hasTime, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if e.Type == "C" && hasTime {
			t.Error("hasTime = true for the timeless final line")
		}
		types = append(types, e.Type)
	}
	if strings.Join(types, "") != "ABC" {
		t.Errorf("decoded types = %v, want A B C", types)
	}
	if d.Rejected() != 0 {
		t.Errorf("Rejected = %d on a clean stream", d.Rejected())
	}
	if d.Line() != 5 {
		t.Errorf("Line = %d, want 5 (blank lines count)", d.Line())
	}
}

func TestLineDecoderReportsLineNumberAndPayload(t *testing.T) {
	in := "{\"type\":\"A\",\"time\":1,\"attrs\":{}}\n" +
		"this is not json\n" +
		"{\"type\":\"B\",\"time\":2,\"attrs\":{}}\n"
	d := NewLineDecoder(strings.NewReader(in), 0)
	if _, _, err := d.Next(); err != nil {
		t.Fatalf("line 1: %v", err)
	}
	_, _, err := d.Next()
	var lerr *LineError
	if !errors.As(err, &lerr) {
		t.Fatalf("line 2 error = %v, want *LineError", err)
	}
	if lerr.Line != 2 {
		t.Errorf("LineError.Line = %d, want 2", lerr.Line)
	}
	if lerr.Payload != "this is not json" {
		t.Errorf("LineError.Payload = %q", lerr.Payload)
	}
	if msg := lerr.Error(); !strings.Contains(msg, "line 2") || !strings.Contains(msg, "this is not json") {
		t.Errorf("Error() = %q missing line number or payload", msg)
	}
	// The decoder must keep going after a bad line.
	e, _, err := d.Next()
	if err != nil || e.Type != "B" {
		t.Fatalf("after bad line: %v, %v", e, err)
	}
	if d.Rejected() != 1 {
		t.Errorf("Rejected = %d, want 1", d.Rejected())
	}
}

// One huge line must be consumed and rejected — with a bounded payload
// sample and bounded memory — without poisoning the lines after it.
func TestLineDecoderOverlongLineRecovery(t *testing.T) {
	huge := strings.Repeat("x", 1<<20) // 1 MiB against a 4 KiB cap
	in := huge + "\n{\"type\":\"A\",\"time\":1,\"attrs\":{}}\n"
	d := NewLineDecoder(strings.NewReader(in), 4096)
	_, _, err := d.Next()
	var lerr *LineError
	if !errors.As(err, &lerr) {
		t.Fatalf("overlong line error = %v, want *LineError", err)
	}
	if lerr.Line != 1 {
		t.Errorf("LineError.Line = %d, want 1", lerr.Line)
	}
	if len(lerr.Payload) > maxPayloadSample+len("...") {
		t.Errorf("payload sample is %d bytes, want <= %d", len(lerr.Payload), maxPayloadSample+3)
	}
	if !strings.HasSuffix(lerr.Payload, "...") {
		t.Errorf("truncated payload %q lacks ellipsis", lerr.Payload)
	}
	e, _, err := d.Next()
	if err != nil || e.Type != "A" {
		t.Fatalf("line after overlong one: %v, %v", e, err)
	}
	if _, _, err := d.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

func TestLineDecoderSanitizesInvalidUTF8(t *testing.T) {
	d := NewLineDecoder(strings.NewReader("not json \xff\xfe\n"), 0)
	_, _, err := d.Next()
	var lerr *LineError
	if !errors.As(err, &lerr) {
		t.Fatalf("error = %v, want *LineError", err)
	}
	if !utf8.ValidString(lerr.Payload) {
		t.Errorf("payload %q is not valid UTF-8", lerr.Payload)
	}
}
