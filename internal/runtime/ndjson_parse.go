package runtime

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"unicode/utf8"

	"cepshed/internal/event"
)

// The NDJSON line parser: one pass over the line, accepting exactly the
// language stated at the top of ndjson.go and allocating only what
// outlives the call (the Event, its attrs map, and first-sighting copies
// of interned strings). Its oracle is ParseEvent in ndjson_parse_test.go.

// internTable deduplicates the strings every event repeats — type names,
// attr names, and low-cardinality attr values — so steady-state decoding
// allocates no string copies. The table is capped: once full, or for
// long strings, intern degrades to a plain copy.
type internTable struct {
	m map[string]string
}

const (
	internMaxEntries = 4096
	internMaxLen     = 64
)

// Intern-table telemetry, aggregated across every LineDecoder in the
// process. The hit path (the steady state) touches none of these; the
// insert and reject paths are rare enough that an atomic add is noise.
// Rejects > 0 is the loud signal that a table filled and decoding
// degraded to one string allocation per unseen value.
var (
	internInserts   atomic.Uint64
	internRejects   atomic.Uint64
	internHighWater atomic.Uint64
)

// InternStats reports process-wide NDJSON intern-table telemetry.
type InternStats struct {
	// Inserts counts first-sighting strings admitted to any table.
	Inserts uint64 `json:"inserts" prom:"cepshed_ndjson_intern_inserts_total,counter,Strings admitted to the NDJSON decoder intern tables."`
	// Rejects counts strings refused because their table was full —
	// each one decoded as a fresh allocation. Nonzero means at least one
	// decoder exceeded the intern capacity (high-cardinality values).
	Rejects uint64 `json:"rejects" prom:"cepshed_ndjson_intern_rejects_total,counter,Strings refused by a full intern table (each decoded as a fresh allocation)."`
	// HighWater is the largest occupancy any single table reached
	// (capacity internMaxEntries).
	HighWater uint64 `json:"high_water" prom:"cepshed_ndjson_intern_high_water,gauge,Largest occupancy any single intern table reached."`
}

// InternTelemetry returns the current counters; safe from any goroutine.
func InternTelemetry() InternStats {
	return InternStats{
		Inserts:   internInserts.Load(),
		Rejects:   internRejects.Load(),
		HighWater: internHighWater.Load(),
	}
}

func (t *internTable) intern(b []byte) string {
	if len(b) > internMaxLen {
		return string(b)
	}
	if s, ok := t.m[string(b)]; ok { // no-alloc map lookup
		return s
	}
	if t.m == nil || len(t.m) >= internMaxEntries {
		internRejects.Add(1)
		return string(b)
	}
	s := string(b)
	t.m[s] = s
	internInserts.Add(1)
	if n := uint64(len(t.m)); n > internHighWater.Load() {
		// Racy max is fine: a lost update undercounts by a few entries,
		// never over.
		internHighWater.Store(n)
	}
	return s
}

// parseInt64 parses an integer literal number() has read, faster than
// strconv.ParseInt. ok=false means the value exceeds int64 range.
func parseInt64(b []byte) (int64, bool) {
	neg := b[0] == '-'
	if neg {
		b = b[1:]
	}
	var n uint64
	for _, c := range b {
		d := uint64(c - '0')
		if n > (1<<64-1-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		if n > 1<<63 {
			return 0, false
		}
		return -int64(n), true // n == 1<<63 yields MinInt64 exactly
	}
	if n > 1<<63-1 {
		return 0, false
	}
	return int64(n), true
}

// maxNesting is encoding/json's limit on how deeply objects and arrays
// may nest in one document. The line's object is level 1, its attrs
// object level 2, so an object or array attr value opens level 3.
const maxNesting = 10000

// lineParser reads one line left to right. Every read skips the JSON
// whitespace before its token.
type lineParser struct {
	b []byte
	i int
}

// syntax reports malformed JSON at the cursor (at len(line) when the
// line ends early).
func (p *lineParser) syntax() error { return fmt.Errorf("malformed JSON at byte %d", p.i) }

// peek skips whitespace and returns the next byte (0 at the end).
func (p *lineParser) peek() byte {
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; c {
		case ' ', '\t', '\r', '\n':
		default:
			return c
		}
	}
	return 0
}

// at consumes c if it is the byte at the cursor.
func (p *lineParser) at(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// eat skips whitespace and consumes c if it comes next.
func (p *lineParser) eat(c byte) bool {
	p.peek()
	return p.at(c)
}

// word consumes the literal w (true, false or null) at the cursor.
func (p *lineParser) word(w string) bool {
	p.peek()
	if len(p.b)-p.i >= len(w) && string(p.b[p.i:p.i+len(w)]) == w {
		p.i += len(w)
		return true
	}
	return false
}

// str reads the JSON string at the cursor and returns its contents.
// Printable ASCII without escapes — every string of a canonical line —
// is returned in place, aliasing the line. Any other string is decoded
// by encoding/json: escapes and surrogate pairs resolve, and each byte
// of invalid UTF-8 becomes U+FFFD.
func (p *lineParser) str() ([]byte, error) {
	if p.peek() != '"' {
		return nil, p.syntax()
	}
	b, start, plain := p.b, p.i, true
	for i := start + 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			p.i = i + 1
			if plain {
				return b[start+1 : i], nil
			}
			var s string
			err := json.Unmarshal(b[start:i+1], &s)
			return []byte(s), err
		case c == '\\':
			plain = false
			i++ // the escaped byte cannot end the string
		case c < 0x20:
			p.i = i
			return nil, p.syntax()
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	p.i = len(b)
	return nil, p.syntax()
}

// digits consumes a run of decimal digits and returns its length.
func (p *lineParser) digits() int {
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// number reads the JSON number literal at the cursor and reports whether
// it is an integer (no fraction or exponent part). It stops where the
// grammar does, so "01" or "1.5.5" leave a byte the caller rejects.
func (p *lineParser) number() (tok []byte, isInt bool, err error) {
	p.peek()
	start := p.i
	p.at('-')
	if lead := p.i; p.digits() == 0 || p.b[lead] == '0' && p.i > lead+1 {
		return nil, false, p.syntax()
	}
	isInt = true
	if p.at('.') {
		if p.digits() == 0 {
			return nil, false, p.syntax()
		}
		isInt = false
	}
	if p.at('e') || p.at('E') {
		if !p.at('+') {
			p.at('-')
		}
		if p.digits() == 0 {
			return nil, false, p.syntax()
		}
		isInt = false
	}
	return p.b[start:p.i], isInt, nil
}

// int64 reads an integer literal within int64 — the only number "time"
// takes.
func (p *lineParser) int64() (int64, error) {
	tok, isInt, err := p.number()
	if err != nil {
		return 0, err
	}
	n, ok := parseInt64(tok)
	if !isInt || !ok {
		return 0, fmt.Errorf("%s is not an int64", tok)
	}
	return n, nil
}

// object reads the JSON object at the cursor, calling member with each
// key once the cursor stands at its value; member consumes the value.
func (p *lineParser) object(member func(key []byte) error) error {
	if !p.eat('{') {
		return p.syntax()
	}
	if p.eat('}') {
		return nil
	}
	for {
		k, err := p.str()
		if err != nil {
			return err
		}
		if !p.eat(':') {
			return p.syntax()
		}
		if err := member(k); err != nil {
			return err
		}
		if p.eat(',') {
			continue
		}
		if p.eat('}') {
			return nil
		}
		return p.syntax()
	}
}

// skip consumes one well-formed JSON value of any kind; an object or
// array at the cursor opens nesting level depth.
func (p *lineParser) skip(depth int) error {
	switch c := p.peek(); {
	case c == '"':
		_, err := p.str()
		return err
	case p.word("true") || p.word("false") || p.word("null"):
		return nil
	case (c == '{' || c == '[') && depth > maxNesting:
		return errors.New("nested deeper than 10000 levels")
	case c == '{':
		return p.object(func([]byte) error { return p.skip(depth + 1) })
	case p.eat('['):
		if p.eat(']') {
			return nil
		}
		for {
			if err := p.skip(depth + 1); err != nil {
				return err
			}
			if p.eat(',') {
				continue
			}
			if p.eat(']') {
				return nil
			}
			return p.syntax()
		}
	}
	_, _, err := p.number()
	return err
}

// attr reads one attribute value. A well-formed value the event model
// has no kind for — bool, null, object, array, a number beyond float64
// range — comes back as the zero Value: it rejects the line only if no
// later attribute of the same name replaces it, because encoding/json
// collects the attrs object as raw values and types them afterwards.
func (p *lineParser) attr(in *internTable) (event.Value, error) {
	switch p.peek() {
	case '"':
		s, err := p.str()
		return event.Str(in.intern(s)), err
	case 't', 'f', 'n', '{', '[':
		return event.Value{}, p.skip(3)
	}
	tok, isInt, err := p.number()
	if err != nil {
		return event.Value{}, err
	}
	if isInt {
		if n, ok := parseInt64(tok); ok {
			return event.Int(n), nil
		}
		// Beyond int64: a float, the fallback json.Number.Int64 →
		// Float64 takes.
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return event.Value{}, nil // beyond float64: no kind
	}
	return event.Float(f), nil
}

// The keys of a line. encoding/json matches a key to a struct field
// exactly or else case-insensitively, by the folding bytes.EqualFold
// implements.
const (
	keyUnknown = iota
	keyType
	keyTime
	keyAttrs
)

var keyNames = [...]string{keyType: "type", keyTime: "time", keyAttrs: "attrs"}

func keyOf(k []byte) int {
	switch string(k) {
	case "type":
		return keyType
	case "time":
		return keyTime
	case "attrs":
		return keyAttrs
	}
	for key := keyType; key <= keyAttrs; key++ {
		if bytes.EqualFold(k, []byte(keyNames[key])) {
			return key
		}
	}
	return keyUnknown
}

// parseLine decodes one NDJSON line, or reports why the line is not in
// the wire format.
func parseLine(line []byte, in *internTable) (e *event.Event, hasTime bool, err error) {
	var (
		p        = lineParser{b: line}
		typ      string
		t        int64
		attrs    map[string]event.Value
		kindless bool // some attr value has no kind (see attr)
	)
	err = p.object(func(k []byte) error {
		switch keyOf(k) {
		case keyType:
			if p.word("null") {
				return nil // null leaves a string field as it was
			}
			v, err := p.str()
			typ = in.intern(v)
			return err
		case keyTime:
			if p.word("null") {
				t, hasTime = 0, false
				return nil
			}
			n, err := p.int64()
			t, hasTime = n, true
			return err
		case keyAttrs:
			if p.word("null") {
				attrs = nil
				return nil
			}
			if attrs == nil {
				attrs = make(map[string]event.Value, 4)
			}
			return p.object(func(name []byte) error {
				v, err := p.attr(in)
				kindless = kindless || v.Kind == event.KindNone
				attrs[in.intern(name)] = v
				return err
			})
		}
		return fmt.Errorf("unknown key %q", k)
	})
	// Bytes after the object are ignored: encoding/json's Decoder.Decode
	// reads one value and never looks past it.
	if err != nil {
		return nil, false, err
	}
	if typ == "" {
		return nil, false, errors.New(`missing "type"`)
	}
	if kindless {
		for name, v := range attrs {
			if v.Kind == event.KindNone {
				return nil, false, fmt.Errorf("attr %q: unsupported value (only numbers and strings)", name)
			}
		}
	}
	if attrs == nil {
		attrs = map[string]event.Value{}
	}
	return event.New(typ, event.Time(t), attrs), hasTime, nil
}
