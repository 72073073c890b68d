package runtime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cepshed/internal/event"
)

// wireEvent, ParseEvent and parseValue are the oracle for parseLine:
// encoding/json decoding a whole line into a struct. The wire-format
// comment in ndjson.go states the language this accepts; parseLine must
// accept exactly the same lines and decode them to the same events.
type wireEvent struct {
	Type  string                     `json:"type"`
	Time  *int64                     `json:"time,omitempty"`
	Attrs map[string]json.RawMessage `json:"attrs,omitempty"`
}

// ParseEvent decodes one NDJSON line into an event with encoding/json.
// hasTime reports whether the line carried an explicit timestamp.
func ParseEvent(line []byte) (e *event.Event, hasTime bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var we wireEvent
	if err := dec.Decode(&we); err != nil {
		return nil, false, fmt.Errorf("runtime: bad event line: %w", err)
	}
	if we.Type == "" {
		return nil, false, fmt.Errorf("runtime: event line missing \"type\"")
	}
	attrs := make(map[string]event.Value, len(we.Attrs))
	for name, raw := range we.Attrs {
		v, err := parseValue(raw)
		if err != nil {
			return nil, false, fmt.Errorf("runtime: attr %q: %w", name, err)
		}
		attrs[name] = v
	}
	var t event.Time
	if we.Time != nil {
		t = event.Time(*we.Time)
	}
	return event.New(we.Type, t, attrs), we.Time != nil, nil
}

// parseValue types one raw attr value: a string is Str; a number is Int
// when json.Number.Int64 takes it, else Float; anything else is an
// error.
func parseValue(raw json.RawMessage) (event.Value, error) {
	raw = bytes.TrimSpace(raw)
	if len(raw) == 0 {
		return event.Value{}, fmt.Errorf("empty value")
	}
	if raw[0] == '"' {
		var str string
		if err := json.Unmarshal(raw, &str); err != nil {
			return event.Value{}, err
		}
		return event.Str(str), nil
	}
	var num json.Number
	if err := json.Unmarshal(raw, &num); err != nil {
		return event.Value{}, fmt.Errorf("unsupported value %s (only numbers and strings)", raw)
	}
	if i, err := num.Int64(); err == nil {
		return event.Int(i), nil
	}
	f, err := num.Float64()
	if err != nil {
		return event.Value{}, err
	}
	return event.Float(f), nil
}

func newInternTable() *internTable {
	return &internTable{m: make(map[string]string, 64)}
}

// checkAgainstOracle runs one line through parseLine and ParseEvent and
// fails unless both reject it, or both accept it and agree on the type,
// the time, hasTime and every attribute's kind and value. It returns
// whether the line was accepted.
func checkAgainstOracle(t testing.TB, line []byte) bool {
	t.Helper()
	e, ht, err := parseLine(line, newInternTable())
	oe, oht, oerr := ParseEvent(line)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("%q: parseLine error %v, oracle error %v", line, err, oerr)
	}
	if err != nil {
		return false
	}
	if e.Type != oe.Type || e.Time != oe.Time || ht != oht {
		t.Fatalf("%q: parseLine (%q, %v, hasTime=%v), oracle (%q, %v, hasTime=%v)",
			line, e.Type, e.Time, ht, oe.Type, oe.Time, oht)
	}
	if !reflect.DeepEqual(e.Attrs, oe.Attrs) {
		t.Fatalf("%q: parseLine attrs %#v, oracle %#v", line, e.Attrs, oe.Attrs)
	}
	return true
}

// nested is an attr value nesting n arrays, opening levels 3 to n+2 of
// the line.
func nested(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }

// TestParseEventFastDifferential holds parseLine to the oracle on the
// canonical shape and on every edge of the language, and pins which
// lines the language holds.
func TestParseEventFastDifferential(t *testing.T) {
	cases := []struct {
		line   string
		accept bool
	}{
		// The canonical shape and its harmless variants.
		{`{"type":"A","time":123456,"attrs":{"ID":5,"V":3.5,"user":"u1"}}`, true},
		{`{"type":"A","time":0,"attrs":{}}`, true},
		{`{"type":"B","attrs":{"ID":2}}`, true}, // no time: hasTime=false
		{`{"type":"C","time":-42,"attrs":{"x":-0.5}}`, true},
		{`{"type":"A","time":9223372036854775807,"attrs":{}}`, true},
		{`{"type":"A","time":-9223372036854775808}`, true},
		{`{"type":"A","time":-0}`, true},
		{`{"attrs":{"a":1},"time":7,"type":"Z"}`, true}, // any key order
		{" { \"type\" : \"A\" ,\t\"time\" : 1 ,\r\n\"attrs\" : { \"k\" : \"v\" } } ", true},
		{`{"type":"A","attrs":{"big":9223372036854775808}}`, true},    // int64 overflow -> float
		{`{"type":"A","attrs":{"n":18446744073709551615}}`, true},     // uint64 max -> float
		{`{"type":"A","attrs":{"e":1e5,"E":1E+5,"m":-1.5e-3}}`, true}, // exponent forms
		{`{"type":"A","attrs":{"z":-0,"zz":0.0,"tiny":1e-400}}`, true},
		{`{"type":"A","time":5,"attrs":{"k":"v"}}trailing junk`, true}, // Decode reads one value
		{`{"type":"A"}}`, true},
		{`{"type":"A"}{"type":"B"}`, true},
		{`{"type":"A"}`, true}, // no attrs at all
		{"{\"type\":\"A\x7f\"}", true},

		// Keys match case-insensitively by simple folding; any other
		// key is an error.
		{`{"Type":"A"}`, true},
		{`{"TYPE":"A","TIME":3,"ATTRS":{"x":1}}`, true},
		{`{"type":"A","Attrs":{"x":1}}`, true},
		{`{"type":"A","attrſ":{"x":1}}`, true}, // long s folds to s
		{`{"type":"A","tıme":1}`, false},       // dotless i folds to nothing
		{`{"type":"A","TIME":4}`, true},
		{"{\"type\xff\":\"A\"}", false},
		{`{"type":"A","extra":1}`, false},
		{`{"type":"A","attrs":{"x":1},"typ":"B"}`, false},

		// Duplicates: type and time keep the last value, attrs objects
		// merge, a repeated attr name keeps its last value.
		{`{"type":"A","type":"B"}`, true},
		{`{"type":"A","time":1,"time":2}`, true},
		{`{"type":"A","attrs":{"x":1},"attrs":{"y":2}}`, true},
		{`{"type":"A","attrs":{"x":1},"attrs":{"x":"s"}}`, true},
		{`{"type":"A","attrs":{"dup":1,"dup":2}}`, true},
		{`{"type":"A","attrs":{"a":1,"a":2}}`, true},
		{`{"type":"A","attrs":{"x":true,"x":1}}`, true},
		{`{"type":"A","attrs":{"x":{"n":[1,null,"s",{}]},"x":2}}`, true},
		{`{"type":"A","attrs":{"x":1e999},"attrs":{"x":2}}`, true},
		{`{"type":"A","attrs":{"x":1},"attrs":{"x":false}}`, false},
		{`{"type":"A","attrs":{"x":{"n":tru},"x":2}}`, false}, // still must be JSON
		{`{"type":1,"type":"A"}`, false},
		{`{"type":"A","time":"1","time":2}`, false},
		{`{"type":"A","type":""}`, false},

		// null: a no-op on type, clears time, empties attrs.
		{`{"type":null}`, false},
		{`{"type":"A","type":null}`, true},
		{`{"type":null,"type":"A"}`, true},
		{`{"type":"A","time":5,"time":null}`, true},
		{`{"type":"A","time":null,"time":5}`, true},
		{`{"type":"A","time":null}`, true},
		{`{"type":"A","attrs":null}`, true},
		{`{"type":"A","attrs":{"x":1},"attrs":null}`, true},
		{`{"type":"A","attrs":{"x":true},"attrs":null}`, true},
		{`{"type":"A","attrs":null,"attrs":{"y":2}}`, true},
		{`{"type":"A","attrs":{"x":null}}`, false},
		{`null`, false},
		{`{"type":"A","time":nul}`, false},

		// Strings with an escape or a byte >= 0x80 decode as encoding/json
		// decodes them.
		{`{"type":"A\u0041"}`, true},
		{`{"type":"é","attrs":{"k":"ü"}}`, true},
		{"{\"type\":\"\xff\xfe\",\"attrs\":{\"\xc3\":\"a\xe2\x80\"}}", true},
		{`{"type":"A","attrs":{"k":"a\"b\\c\/d\b\f\n\r\t","ü":"😀"}}`, true},
		{`{"type":"\ud800x"}`, true}, // lone surrogate
		{`{"type":"\u0000"}`, true},
		{"{\"type\":\"A\x01\"}", false}, // raw control byte
		{`{"type":"\q"}`, false},
		{`{"type":"A","attrs":{"k":"\u00"}}`, false},
		{`{"type":"A\`, false},

		// What stays an error.
		{``, false},
		{`{}`, false},
		{`{"type":""}`, false},
		{`{"attrs":{}}`, false},
		{`{"type":"A","time":1.0}`, false},
		{`{"type":"A","time":1.5}`, false},
		{`{"type":"A","time":1e2}`, false},
		{`{"type":"A","time":9223372036854775808}`, false},
		{`{"type":"A","time":-9223372036854775809}`, false},
		{`{"type":"A","time":"5"}`, false},
		{`{"type":"A","time":true}`, false},
		{`{"type":5}`, false},
		{`{"type":["A"]}`, false},
		{`{"type":"A","attrs":[]}`, false},
		{`{"type":"A","attrs":"x"}`, false},
		{`{"type":"A","attrs":{"x":true}}`, false},
		{`{"type":"A","attrs":{"x":{"y":1}}}`, false},
		{`{"type":"A","attrs":{"x":[1]}}`, false},
		{`{"type":"A","attrs":{"x":1e999}}`, false},
		{`{"type":"A","attrs":{"x":01}}`, false},
		{`{"type":"A","attrs":{"x":+1}}`, false},
		{`{"type":"A","attrs":{"x":.5}}`, false},
		{`{"type":"A","attrs":{"x":1.}}`, false},
		{`{"type":"A","attrs":{"x":-}}`, false},
		{`{"type":"A","attrs":{"x":1e}}`, false},
		{`{"type":"A","attrs":{"x":1 2}}`, false},
		{`{"type":"A","attrs":{"k":"v"}`, false}, // truncated
		{`{"type":"A"`, false},
		{`{"type":"A",`, false},
		{`{"type":`, false},
		{`{`, false},
		{`{"type":"A",}`, false}, // trailing comma
		{`{"type":"A","attrs":{"x":1,}}`, false},
		{`{"type" "A"}`, false},
		{`{type:"A"}`, false},
		{`[1,2,3]`, false},
		{`"just a string"`, false},
		{`1`, false},
		{`true`, false},
		{"\xef\xbb\xbf{\"type\":\"A\"}", false}, // a BOM is not whitespace

		// encoding/json refuses nesting past 10000 levels; an attr value
		// opens level 3.
		{`{"type":"A","attrs":{"x":` + nested(9998) + `,"x":1}}`, true},
		{`{"type":"A","attrs":{"x":` + nested(9999) + `,"x":1}}`, false},
	}
	for _, c := range cases {
		if got := checkAgainstOracle(t, []byte(c.line)); got != c.accept {
			t.Errorf("%.80q: accepted=%v, want %v", c.line, got, c.accept)
		}
	}
}

// randomLine builds a line member by member from the pieces the wire
// format has edges in: folded and escaped keys, unknown keys, repeated
// keys, nulls, escaped, non-ASCII and invalid-UTF-8 strings, numbers at
// and past their ranges, and values the event model has no kind for.
func randomLine(rng *rand.Rand) []byte {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	str := func() string {
		if rng.Intn(2) == 0 {
			return fmt.Sprintf(`"s%d"`, rng.Intn(20))
		}
		return `"` + pick("", "ü", `a\"b`, `x\\y`, `\n`, `é`, `😀`, `\ud800`, "\xff", "a\xc3", "\x7f", `A`) + `"`
	}
	num := func() string {
		return pick("0", "-0", "7", "-42", "3.5", "1e3", "-1.5E-3", "9223372036854775807",
			"9223372036854775808", "-9223372036854775809", "1e999", "01", "+1", ".5", "1.", "-")
	}
	key := func(name string) string {
		switch rng.Intn(8) {
		case 0:
			return `"` + strings.ToUpper(name) + `"`
		case 1:
			return `"` + strings.Replace(name, "s", "ſ", 1) + `"`
		case 2:
			return `"\u00` + fmt.Sprintf("%x", name[0]) + name[1:] + `"`
		case 3:
			return `"` + pick("tıme", "typ", "extra", "attr") + `"`
		}
		return `"` + name + `"`
	}
	ws := func() string { return pick("", "", "", " ", "\t", "\r\n ") }
	value := func() string {
		switch rng.Intn(10) {
		case 0, 1, 2:
			return str()
		case 3, 4, 5, 6:
			return num()
		}
		return pick("true", "false", "null", "[]", `{"a":[1,{}]}`, "nul", `[1,]`)
	}
	attrs := func() string {
		if rng.Intn(6) == 0 {
			return pick("null", "[]", `"x"`, "1")
		}
		var b strings.Builder
		b.WriteString("{")
		for n := rng.Intn(4); n > 0; n-- {
			b.WriteString(ws() + str() + ws() + ":" + ws() + value() + ws())
			if n > 1 {
				b.WriteString(",")
			}
		}
		return b.String() + "}"
	}
	var members []string
	for n := 1 + rng.Intn(4); n > 0; n-- {
		var m string
		switch rng.Intn(7) {
		case 0, 1:
			m = key("type") + ":" + ws() + pick(str(), str(), str(), "null", "1", `""`)
		case 2, 3:
			m = key("time") + ":" + ws() + pick(num(), num(), "null", `"1"`)
		default:
			m = key("attrs") + ":" + ws() + attrs()
		}
		members = append(members, ws()+m+ws())
	}
	line := "{" + strings.Join(members, ",") + "}"
	switch rng.Intn(20) {
	case 0:
		line = line[:rng.Intn(len(line))]
	case 1:
		line += pick(" junk", "}", `{"type":"B"}`)
	}
	return []byte(ws() + line)
}

// TestParseEventFastRandomized holds parseLine to the oracle on random
// lines, and on EncodeEvent's output for random events, which it must
// accept and decode back to the event encoded.
func TestParseEventFastRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	accepted := 0
	const lines = 20000
	for i := 0; i < lines; i++ {
		if checkAgainstOracle(t, randomLine(rng)) {
			accepted++
		}
	}
	if accepted < lines/20 || accepted > lines-lines/20 {
		t.Fatalf("%d/%d random lines accepted; the generator no longer reaches both sides", accepted, lines)
	}
	t.Logf("%d/%d random lines accepted", accepted, lines)

	exotic := []string{"", "ü", "a\"b", "x\\y", "tab\there", "line\nbreak", "nul\x00", "\xff", "<&>", " "}
	for i := 0; i < 2000; i++ {
		str := func() string {
			if rng.Intn(3) > 0 {
				return fmt.Sprintf("s%d", rng.Intn(50))
			}
			return exotic[rng.Intn(len(exotic))]
		}
		attrs := map[string]event.Value{}
		for n := rng.Intn(5); n > 0; n-- {
			k := str()
			switch rng.Intn(3) {
			case 0:
				attrs[k] = event.Int(rng.Int63() - rng.Int63())
			case 1:
				attrs[k] = event.Float(math.Trunc(rng.NormFloat64()*1e6) / 1e3)
			default:
				attrs[k] = event.Str(str())
			}
		}
		typ := str()
		if typ == "" {
			typ = "T"
		}
		line := EncodeEvent(event.New(typ, event.Time(rng.Int63()-rng.Int63()), attrs))
		if !checkAgainstOracle(t, line) {
			t.Fatalf("EncodeEvent output rejected: %q", line)
		}
	}
}

// TestParseValueNumbers pins the oracle's attr value typing, and
// parseLine to it on each value: int64 range stays Int, overflow and
// any fraction/exponent form degrade to Float, malformed literals error.
func TestParseValueNumbers(t *testing.T) {
	cases := []struct {
		raw  string
		want event.Value
		err  bool
	}{
		{`9223372036854775807`, event.Int(math.MaxInt64), false},
		{`-9223372036854775808`, event.Int(math.MinInt64), false},
		{`9223372036854775808`, event.Float(9223372036854775808), false}, // int64+1 -> float
		{`-9223372036854775809`, event.Float(-9223372036854775809), false},
		{`18446744073709551615`, event.Float(18446744073709551615), false},
		{`1e5`, event.Float(100000), false},
		{`1E+5`, event.Float(100000), false},
		{`-1.5e-3`, event.Float(-0.0015), false},
		{`123.0`, event.Float(123), false}, // fraction part forces float
		{`-0`, event.Int(0), false},
		{`0.0`, event.Float(0), false},
		{`"s"`, event.Str("s"), false},
		{`1e999`, event.Value{}, true}, // out of range
		{`01`, event.Value{}, true},    // leading zero is not JSON
		{`+1`, event.Value{}, true},
		{`.5`, event.Value{}, true},
		{`1.`, event.Value{}, true},
		{`true`, event.Value{}, true},
		{`null`, event.Value{}, true},
		{`nan`, event.Value{}, true},
	}
	for _, c := range cases {
		checkAgainstOracle(t, []byte(`{"type":"A","attrs":{"x":`+c.raw+`}}`))
		got, err := parseValue([]byte(c.raw))
		if c.err {
			if err == nil {
				t.Errorf("parseValue(%q) = %v, want error", c.raw, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseValue(%q) error: %v", c.raw, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseValue(%q) = %#v, want %#v", c.raw, got, c.want)
		}
	}
}

// TestLineDecoderCanonicalAllocs pins what a canonical line costs once
// its strings are interned: the Event and its attrs map, 3 allocations
// in all.
func TestLineDecoderCanonicalAllocs(t *testing.T) {
	line := []byte(`{"type":"A","time":123456,"attrs":{"ID":5,"V":3.5,"user":"u1"}}` + "\n")
	var r bytes.Reader
	d := NewLineDecoder(&r, 0)
	next := func() {
		r.Reset(line)
		if _, _, err := d.Next(); err != nil {
			t.Fatal(err)
		}
	}
	next() // intern the type, names and string value
	if got := testing.AllocsPerRun(200, next); got != 3 {
		t.Errorf("LineDecoder.Next allocates %v times per canonical line, want 3", got)
	}
}

// TestInternTableBounds pins the intern table's caps: oversized strings
// and post-cap entries still decode, just without deduplication.
func TestInternTableBounds(t *testing.T) {
	in := newInternTable()
	long := strings.Repeat("x", internMaxLen+1)
	if got := in.intern([]byte(long)); got != long {
		t.Errorf("long string mangled: %q", got)
	}
	if len(in.m) != 0 {
		t.Errorf("long string was interned; table should skip it")
	}
	for i := 0; i < internMaxEntries+100; i++ {
		s := fmt.Sprintf("k%d", i)
		if got := in.intern([]byte(s)); got != s {
			t.Fatalf("intern(%q) = %q", s, got)
		}
	}
	if len(in.m) != internMaxEntries {
		t.Errorf("table size %d, want cap %d", len(in.m), internMaxEntries)
	}
	// Post-cap lookups of already-interned strings still hit.
	if got := in.intern([]byte("k0")); got != "k0" {
		t.Errorf("interned lookup broken: %q", got)
	}
}

// FuzzParseEventFast feeds arbitrary single lines to parseLine and the
// oracle: parseLine must never panic, must accept exactly the lines the
// oracle accepts, and must decode them to the same events. Seeds, one
// per edge of the language, live in testdata/fuzz/FuzzParseEventFast.
func FuzzParseEventFast(f *testing.F) {
	f.Add([]byte(`{"type":"A","time":123,"attrs":{"ID":5,"V":3.5,"user":"u1"}}`))
	f.Add([]byte(`{"type":"A","time":null,"attrs":null}`))
	f.Add([]byte(`{"Type":"A","attrs":{"x":01,"y":1e999,"z":true}}`))
	f.Add([]byte(`{"attrs":{"dup":1,"dup":2},"type":"Z","time":-1}`))
	f.Add([]byte(`{"type":"é","attrs":{"k":"a\"b"}}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		checkAgainstOracle(t, line)
	})
}
