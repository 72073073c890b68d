package runtime

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"cepshed/internal/engine"
	"cepshed/internal/event"
)

// The NDJSON wire format, one event per line:
//
//	{"type":"A","time":123456,"attrs":{"ID":5,"V":3.5,"user":"u1"}}
//
// A line is one JSON object; bytes after its closing brace are ignored.
// "type" is a non-empty string and required. "time" is the virtual
// timestamp in nanoseconds, an integer within int64, and optional — a
// server assigns arrival time when absent. "attrs" is an object whose
// values map onto the event model: JSON integers within int64 become
// Int, other numbers Float, strings Str. Booleans, null, nested
// structures and numbers beyond float64 are rejected: the event model
// has no corresponding kinds, and silently coercing them would make
// predicates fail in confusing ways. Any other key rejects the line.
//
// The finer rules are those of encoding/json decoding the line into a
// struct with DisallowUnknownFields (ParseEvent in ndjson_parse_test.go,
// the parser's test oracle):
//   - keys match case-insensitively, by Unicode simple folding: "TYPE",
//     "Attrs" and "attrſ" (long s) are accepted, "tıme" (dotless i) is
//     not;
//   - a repeated "type" or "time" keeps its last value; repeated "attrs"
//     objects merge, and a repeated attribute name keeps its last value,
//     so an unsupported value that a later one replaces is no error;
//   - null is ignored for "type", removes the timestamp for "time", and
//     empties the attributes read so far for "attrs";
//   - strings decode escapes and surrogate pairs, and each byte of
//     invalid UTF-8 becomes U+FFFD;
//   - numbers follow the JSON grammar: no leading zeros, no "+", no
//     bare "." — and "time" takes no fraction or exponent, not even 1.0.

// LineError reports one rejected NDJSON line with enough context to
// debug the producer: the 1-based line number in the stream and a
// truncated copy of the offending payload. A LineError is recoverable —
// a LineDecoder keeps going after returning one — and is what ingest
// paths feed to the dead-letter queue.
type LineError struct {
	// Line is the 1-based line number within the decoded stream.
	Line int
	// Payload is the offending line, truncated to a bounded length and
	// sanitized to valid UTF-8.
	Payload string
	// Err is the underlying decode failure.
	Err error
}

// Error renders the line number, cause, and truncated payload.
func (e *LineError) Error() string {
	return fmt.Sprintf("runtime: ndjson line %d: %v (payload %q)", e.Line, e.Err, e.Payload)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *LineError) Unwrap() error { return e.Err }

// maxPayloadSample bounds the payload copied into a LineError.
const maxPayloadSample = 160

// truncatePayload clips b to max bytes for diagnostics, appending "..."
// when it clipped and replacing invalid UTF-8 so the result is safe to
// embed in JSON and logs.
func truncatePayload(b []byte, max int) string {
	clipped := false
	if len(b) > max {
		b, clipped = b[:max], true
	}
	s := string(b)
	if !utf8.ValidString(s) {
		// The 3-byte replacement rune can grow the string past max when
		// it substitutes shorter invalid sequences; re-clip on a rune
		// boundary to keep the bound hard.
		s = strings.ToValidUTF8(s, "�")
		if len(s) > max {
			cut := max
			for cut > 0 && !utf8.RuneStart(s[cut]) {
				cut--
			}
			s, clipped = s[:cut], true
		}
	}
	if clipped {
		s += "..."
	}
	return s
}

// ClipPayload bounds a dead-letter payload by truncatePayload's rule,
// once: a payload that rule can have produced — valid UTF-8 of at most
// maxPayloadSample bytes plus the "..." marker — is kept as it is, so a
// LineError.Payload handed on to a dead-letter queue keeps its marker
// instead of being cut a second time.
func ClipPayload(s string) string {
	if len(s) <= maxPayloadSample+len("...") && utf8.ValidString(s) {
		return s
	}
	return truncatePayload([]byte(s), maxPayloadSample)
}

// LineDecoder reads an NDJSON stream line by line, surviving every kind
// of malformed input: bad JSON, unsupported values, and lines longer
// than the buffer (the oversized line is consumed and rejected instead
// of poisoning the reader, so one huge line cannot kill a connection).
// Decode errors are *LineError values carrying the line number and a
// truncated payload; the decoder stays usable after returning one.
type LineDecoder struct {
	r        *bufio.Reader
	maxLine  int
	line     int
	rejected uint64
	in       internTable
}

// NewLineDecoder wraps r; lines longer than maxLine bytes are rejected
// (default 1 MiB when maxLine <= 0).
func NewLineDecoder(r io.Reader, maxLine int) *LineDecoder {
	if maxLine <= 0 {
		maxLine = 1 << 20
	}
	bufSize := maxLine
	if bufSize > 64*1024 {
		bufSize = 64 * 1024
	}
	return &LineDecoder{
		r:       bufio.NewReaderSize(r, bufSize),
		maxLine: maxLine,
		in:      internTable{m: make(map[string]string, 64)},
	}
}

// Line returns the number of lines consumed so far.
func (d *LineDecoder) Line() int { return d.line }

// Rejected returns how many lines failed to decode.
func (d *LineDecoder) Rejected() uint64 { return d.rejected }

// Next returns the next event. hasTime reports whether the line carried
// an explicit timestamp; when false the caller must assign one before
// offering the event to a runtime. Blank lines are skipped. At end of
// input it returns io.EOF (or the reader's error). A *LineError means
// one bad line was skipped; keep calling Next.
func (d *LineDecoder) Next() (e *event.Event, hasTime bool, err error) {
	line, err := d.readLine()
	if err != nil {
		if lerr, ok := err.(*LineError); ok {
			d.rejected++
			return nil, false, lerr
		}
		return nil, false, err
	}
	e, hasTime, perr := parseLine(line, &d.in)
	if perr != nil {
		d.rejected++
		return nil, false, &LineError{Line: d.line, Payload: truncatePayload(line, maxPayloadSample), Err: perr}
	}
	return e, hasTime, nil
}

// readLine returns the next non-blank line without its trailing
// newline. An overlong line is consumed to its end (retaining only a
// bounded prefix) and reported as a *LineError.
func (d *LineDecoder) readLine() ([]byte, error) {
	for {
		line, tooLong, err := d.rawLine()
		if line == nil && !tooLong {
			return nil, err // end of input or read failure
		}
		d.line++
		if tooLong {
			return nil, &LineError{Line: d.line, Payload: truncatePayload(line, maxPayloadSample),
				Err: fmt.Errorf("line exceeds %d bytes", d.maxLine)}
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(bytes.TrimSpace(line)) > 0 {
			return line, nil
		}
		if err != nil {
			return nil, err // blank final line, then EOF
		}
	}
}

// rawLine returns one raw line, keeping at most maxLine bytes; the
// remainder of an overlong line is discarded and tooLong reported. At
// end of input err is io.EOF and line may still hold a final
// unterminated line; the EOF surfaces again on the next call.
//
// The returned slice may alias the reader's internal buffer and is only
// valid until the next rawLine call — Next consumes each line fully
// before reading again, so the common case (a line that fits the buffer
// in one chunk) allocates nothing.
func (d *LineDecoder) rawLine() (line []byte, tooLong bool, err error) {
	chunk, rerr := d.r.ReadSlice('\n')
	if rerr != bufio.ErrBufferFull {
		// Whole line in one chunk: return the buffer's slice directly.
		// tooLong is impossible here — the reader's buffer never exceeds
		// maxLine, so a chunk that ends in a newline (or at EOF) fits.
		if len(chunk) == 0 {
			return nil, false, rerr
		}
		return chunk, false, rerr
	}
	// Line spans the buffer: fall back to accumulating a copy. The first
	// chunk always fits (buffer size <= maxLine).
	acc := append(make([]byte, 0, 2*len(chunk)), chunk...)
	for {
		chunk, rerr = d.r.ReadSlice('\n')
		if !tooLong {
			if len(acc)+len(chunk) <= d.maxLine {
				acc = append(acc, chunk...)
			} else {
				if keep := d.maxLine - len(acc); keep > 0 {
					acc = append(acc, chunk[:keep]...)
				}
				tooLong = true
			}
		}
		switch rerr {
		case nil: // newline found
			return acc, tooLong, nil
		case bufio.ErrBufferFull:
			continue
		default: // io.EOF or a real read error
			return acc, tooLong, rerr
		}
	}
}

// EncodeEvent renders an event as one NDJSON line (without the trailing
// newline).
func EncodeEvent(e *event.Event) []byte {
	var b bytes.Buffer
	t := int64(e.Time)
	b.WriteString(`{"type":`)
	writeJSONString(&b, e.Type)
	fmt.Fprintf(&b, `,"time":%d,"attrs":{`, t)
	names := make([]string, 0, len(e.Attrs))
	for k := range e.Attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		writeJSONString(&b, k)
		b.WriteByte(':')
		v := e.Attrs[k]
		switch {
		case v.Kind == event.KindString:
			writeJSONString(&b, v.S)
		case v.Kind == event.KindInt:
			fmt.Fprintf(&b, "%d", v.I)
		case v.Kind == event.KindFloat:
			// A whole float keeps a decimal point, so it decodes back as
			// a Float and not as an Int.
			f := strconv.AppendFloat(b.AvailableBuffer(), v.F, 'g', -1, 64)
			if bytes.IndexAny(f, ".eEnN") < 0 {
				f = append(f, ".0"...)
			}
			b.Write(f)
		default:
			b.WriteString("null")
		}
	}
	b.WriteString("}}")
	return b.Bytes()
}

// EncodeMatch renders a detected match as one NDJSON line: the shard,
// detection timestamp, canonical key, and the matched events' sequence
// numbers and types.
func EncodeMatch(shard int, m engine.Match) []byte { return AppendMatch(nil, shard, m) }

// AppendMatch appends EncodeMatch's line for m to dst. With capacity in
// dst and event types on AppendJSONString's fast path it allocates
// nothing: the key is the matched events' sequence numbers joined by
// commas (engine.Match.Key), written in place.
func AppendMatch(dst []byte, shard int, m engine.Match) []byte {
	dst = append(dst, `{"shard":`...)
	dst = strconv.AppendInt(dst, int64(shard), 10)
	dst = append(dst, `,"detected":`...)
	dst = strconv.AppendInt(dst, int64(m.Detected), 10)
	dst = append(dst, `,"key":"`...)
	for i, e := range m.Events {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, e.Seq, 10)
	}
	dst = append(dst, `","events":[`...)
	for i, e := range m.Events {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"seq":`...)
		dst = strconv.AppendUint(dst, e.Seq, 10)
		dst = append(dst, `,"type":`...)
		dst = AppendJSONString(dst, e.Type)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// AppendJSONString appends s as a JSON string, byte for byte what
// encoding/json.Marshal(s) produces. Printable ASCII without the
// characters json escapes (quote, backslash and, HTML-safe, < > &) is
// copied as is; any other string goes through encoding/json.
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, err := json.Marshal(s)
			if err != nil {
				return append(dst, `""`...)
			}
			return append(dst, enc...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func writeJSONString(b *bytes.Buffer, s string) { b.Write(AppendJSONString(nil, s)) }
