// Package fault provides deterministic, seeded fault injectors for
// chaos-testing the streaming runtime. The paper treats load shedding as
// controlled degradation under overload; this package supplies the
// complementary stressors — crashes, slowdowns, corrupt input, stalled
// consumers — so tests can assert that degradation stays controlled when
// things break, not just when things queue.
//
// Injectors are deliberately boring: every one is driven by an explicit
// seed or an explicit count, never by the global RNG or the wall clock,
// so a chaos test that fails replays identically. All injectors are safe
// for concurrent use from multiple shard goroutines.
package fault

import (
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cepshed/internal/event"
)

// Hook is the runtime's fault-injection point: it runs on the shard
// goroutine immediately before an admitted event is handed to the
// engine. A hook may panic (simulating an engine bug on a poison event)
// or sleep (simulating a slow event). The shard index is the *executing*
// shard, so a hook keyed on it stops firing after the supervisor fails
// that shard over — which is exactly how failover tests verify rerouting.
type Hook func(shard int, e *event.Event)

// Chain composes hooks; they run in order.
func Chain(hooks ...Hook) Hook {
	return func(shard int, e *event.Event) {
		for _, h := range hooks {
			h(shard, e)
		}
	}
}

// PanicIf panics with value msg whenever pred matches. The runtime
// quarantines the event it was processing, so a predicate on an
// attribute models a poison-pill event and a predicate on the shard
// index models a sick replica.
func PanicIf(pred func(shard int, e *event.Event) bool, msg string) Hook {
	return func(shard int, e *event.Event) {
		if pred(shard, e) {
			panic(msg)
		}
	}
}

// PanicEvery panics on every nth call, at most limit times (limit <= 0:
// unlimited). The counter is global across shards.
func PanicEvery(n int, limit int, msg string) Hook {
	if n < 1 {
		n = 1
	}
	var calls, fired atomic.Int64
	return func(int, *event.Event) {
		if limit > 0 && fired.Load() >= int64(limit) {
			return
		}
		if calls.Add(1)%int64(n) == 0 {
			fired.Add(1)
			panic(msg)
		}
	}
}

// FailStageOnce returns a checkpoint OnStage hook that panics the nth
// time (1-based) the named snapshot stage is reached, then never again —
// the "crash in the middle of writing a snapshot" fault. Paired with the
// stage names in internal/checkpoint (encoded, tmp-written, renamed,
// floor-published), it lets a chaos test kill a shard at an exact point of the
// temp-write-rename protocol and assert recovery falls back to the
// previous good generation.
func FailStageOnce(stage string, nth int) func(shard int, stage string) {
	if nth < 1 {
		nth = 1
	}
	var seen atomic.Int64
	var fired atomic.Bool
	return func(_ int, st string) {
		if st != stage || fired.Load() {
			return
		}
		if seen.Add(1) == int64(nth) && fired.CompareAndSwap(false, true) {
			panic("fault: injected crash at snapshot stage " + stage)
		}
	}
}

// Delay sleeps d before every event matched by pred (nil pred: all
// events) — the "expensive event" fault that pushes wall-clock latency
// over the bound and exercises the degradation ladder.
func Delay(d time.Duration, pred func(shard int, e *event.Event) bool) Hook {
	return func(shard int, e *event.Event) {
		if pred == nil || pred(shard, e) {
			time.Sleep(d)
		}
	}
}

// Switchable gates an inner hook behind an atomic flag so a test can
// clear the fault mid-run ("the incident ends") and assert recovery.
type Switchable struct {
	inner Hook
	on    atomic.Bool
}

// NewSwitchable wraps hook, initially enabled.
func NewSwitchable(hook Hook) *Switchable {
	s := &Switchable{inner: hook}
	s.on.Store(true)
	return s
}

// Set enables or disables the wrapped hook.
func (s *Switchable) Set(on bool) { s.on.Store(on) }

// Hook is the pluggable function.
func (s *Switchable) Hook(shard int, e *event.Event) {
	if s.on.Load() {
		s.inner(shard, e)
	}
}

// Corrupter deterministically mangles NDJSON lines to model a buggy or
// malicious producer: truncation, byte flips, injected garbage, and
// not-quite-JSON literals (NaN, bare words). With probability 1-P the
// line passes through untouched.
type Corrupter struct {
	// P is the corruption probability per line.
	P float64

	mu  sync.Mutex
	rng *rand.Rand
}

// NewCorrupter builds a corrupter with the given per-line probability
// and seed.
func NewCorrupter(p float64, seed int64) *Corrupter {
	return &Corrupter{P: p, rng: rand.New(rand.NewSource(seed))}
}

// Mangle returns the line, possibly corrupted. The input is never
// modified in place.
func (c *Corrupter) Mangle(line []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng.Float64() >= c.P {
		return line
	}
	out := append([]byte(nil), line...)
	switch c.rng.Intn(4) {
	case 0: // truncate mid-line
		if len(out) > 1 {
			out = out[:1+c.rng.Intn(len(out)-1)]
		}
	case 1: // flip a byte
		if len(out) > 0 {
			out[c.rng.Intn(len(out))] ^= 0x55
		}
	case 2: // splice in an invalid JSON literal
		out = append(out[:len(out)/2], append([]byte(`NaN`), out[len(out)/2:]...)...)
	default: // replace with garbage
		out = []byte(`{"type":`)
	}
	return out
}

// StallReader models a stalled producer: it serves the underlying reader
// for the first n bytes, then blocks every Read until Release (or
// forever). Wrap a TCP test connection with it — or just stop writing on
// a real one — to verify the server's read deadlines fire.
type StallReader struct {
	r       io.Reader
	left    int
	release chan struct{}
	once    sync.Once
}

// NewStallReader stalls r after n bytes.
func NewStallReader(r io.Reader, n int) *StallReader {
	return &StallReader{r: r, left: n, release: make(chan struct{})}
}

// Read serves bytes until the budget is exhausted, then blocks.
func (s *StallReader) Read(p []byte) (int, error) {
	if s.left <= 0 {
		<-s.release
		return 0, io.EOF
	}
	if len(p) > s.left {
		p = p[:s.left]
	}
	n, err := s.r.Read(p)
	s.left -= n
	return n, err
}

// Release unblocks all pending and future reads (they return EOF).
func (s *StallReader) Release() { s.once.Do(func() { close(s.release) }) }
