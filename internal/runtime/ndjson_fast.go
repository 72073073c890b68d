package runtime

import (
	"strconv"
	"sync/atomic"
	"unicode/utf8"

	"cepshed/internal/event"
)

// The NDJSON fast path: a hand-rolled parser for the common event shape
// — ASCII strings free of escapes, integer or float numbers, one flat
// "attrs" object — that allocates only what outlives the call (the
// Event, its attrs map, and first-sighting copies of interned strings).
// Anything it cannot prove decodes identically under encoding/json
// (escapes, non-ASCII, case-folded or unknown keys, duplicate top-level
// keys, null/bool/nested values, out-of-range numbers) bails with
// ok=false and the caller re-parses with ParseEvent, so a bail is never
// wrong, only slower. Equivalence on accepted lines is enforced by
// TestParseEventFastDifferential and FuzzParseEventFast.

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

// jsonNumber validates s against the JSON number grammar and reports
// whether it is an integer (no fraction or exponent part).
func jsonNumber[T ~string | ~[]byte](s T) (isInt, ok bool) {
	i := 0
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && s[i] >= '1' && s[i] <= '9':
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
	default:
		return false, false
	}
	isInt = true
	if i < len(s) && s[i] == '.' {
		i++
		isInt = false
		if i >= len(s) || s[i] < '0' || s[i] > '9' {
			return false, false
		}
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		isInt = false
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i >= len(s) || s[i] < '0' || s[i] > '9' {
			return false, false
		}
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
	}
	return isInt, i == len(s)
}

// parseInt64 parses a grammar-validated JSON integer literal without
// going through strconv (whose string argument escapes and allocates).
// ok=false means the value exceeds int64 range.
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

type lineParser struct {
	b []byte
	i int
}

func (p *lineParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return
		}
	}
}

func (p *lineParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str scans a JSON string at the cursor and returns its raw contents.
// ok=false — bail to the stdlib parser — when the cursor is not at a
// string or the contents hold an escape, a control byte, or any
// non-ASCII byte (the fallback handles escapes and UTF-8 sanitizing).
func (p *lineParser) str() ([]byte, bool) {
	b, i := p.b, p.i
	if i >= len(b) || b[i] != '"' {
		return nil, false
	}
	i++
	start := i
	for i < len(b) {
		c := b[i]
		if c == '"' {
			p.i = i + 1
			return b[start:i], true
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			return nil, false
		}
		i++
	}
	return nil, false
}

// number scans the maximal run of number-literal bytes at the cursor and
// validates it against the JSON grammar; ok=false covers bool, null,
// nested values, and malformed numbers alike.
func (p *lineParser) number() (tok []byte, isInt, ok bool) {
	start := p.i
loop:
	for p.i < len(p.b) {
		switch c := p.b[p.i]; {
		case c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E':
			p.i++
		default:
			break loop
		}
	}
	tok = p.b[start:p.i]
	isInt, ok = jsonNumber(tok)
	return tok, isInt, ok
}

func (p *lineParser) value(in *internTable) (event.Value, bool) {
	if p.i < len(p.b) && p.b[p.i] == '"' {
		s, ok := p.str()
		if !ok {
			return event.Value{}, false
		}
		return event.Str(in.intern(s)), true
	}
	tok, isInt, ok := p.number()
	if !ok {
		return event.Value{}, false
	}
	if isInt {
		if i, ok := parseInt64(tok); ok {
			return event.Int(i), true
		}
		// |value| exceeds int64: json.Number.Int64 fails there too and
		// parseValue falls back to float — do the same.
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return event.Value{}, false // e.g. 1e999 out of range: stdlib owns the error
	}
	return event.Float(f), true
}

// attrs parses a flat attrs object. Duplicate attr names overwrite —
// the same last-wins behavior as unmarshalling into a map.
func (p *lineParser) attrs(in *internTable) (map[string]event.Value, bool) {
	if !p.eat('{') { // includes "attrs":null → fallback
		return nil, false
	}
	m := make(map[string]event.Value, 4)
	p.ws()
	if p.eat('}') {
		return m, true
	}
	for {
		p.ws()
		k, kok := p.str()
		if !kok {
			return nil, false
		}
		p.ws()
		if !p.eat(':') {
			return nil, false
		}
		p.ws()
		v, vok := p.value(in)
		if !vok {
			return nil, false
		}
		m[in.intern(k)] = v
		p.ws()
		if p.eat(',') {
			continue
		}
		if p.eat('}') {
			return m, true
		}
		return nil, false
	}
}

// parseEventFast decodes one NDJSON line on the fast path. See the
// package comment at the top of this file for the bail contract.
func parseEventFast(line []byte, in *internTable) (e *event.Event, hasTime bool, ok bool) {
	p := lineParser{b: line}
	p.ws()
	if !p.eat('{') {
		return nil, false, false
	}
	var (
		typ       string
		t         int64
		attrs     map[string]event.Value
		seenType  bool
		seenTime  bool
		seenAttrs bool
	)
	p.ws()
	if !p.eat('}') {
		for {
			p.ws()
			key, kok := p.str()
			if !kok {
				return nil, false, false
			}
			p.ws()
			if !p.eat(':') {
				return nil, false, false
			}
			p.ws()
			switch string(key) { // no-alloc comparison against constants
			case "type":
				// Duplicate top-level keys are last-wins in
				// encoding/json; rare enough to punt to the fallback
				// rather than mimic.
				if seenType {
					return nil, false, false
				}
				seenType = true
				v, vok := p.str()
				if !vok {
					return nil, false, false
				}
				typ = in.intern(v)
			case "time":
				if seenTime {
					return nil, false, false
				}
				seenTime = true
				tok, isInt, nok := p.number()
				if !nok || !isInt {
					return nil, false, false // null, float, or junk: stdlib decides
				}
				iv, iok := parseInt64(tok)
				if !iok {
					return nil, false, false
				}
				t = iv
			case "attrs":
				// Duplicate "attrs" objects MERGE under encoding/json
				// (unmarshal into an existing map); bail rather than
				// reproduce that.
				if seenAttrs {
					return nil, false, false
				}
				seenAttrs = true
				m, mok := p.attrs(in)
				if !mok {
					return nil, false, false
				}
				attrs = m
			default:
				// Unknown or case-folded key: DisallowUnknownFields may
				// reject it or case-insensitively accept it; either way
				// the stdlib path owns the decision.
				return nil, false, false
			}
			p.ws()
			if p.eat(',') {
				continue
			}
			if p.eat('}') {
				break
			}
			return nil, false, false
		}
	}
	// Trailing bytes after the object are deliberately ignored:
	// json.Decoder.Decode reads exactly one value and ParseEvent never
	// looks past it, so the fast path must not reject them either.
	if typ == "" {
		return nil, false, false // stdlib path reports the missing "type"
	}
	if attrs == nil {
		attrs = map[string]event.Value{}
	}
	return event.New(typ, event.Time(t), attrs), seenTime, true
}
