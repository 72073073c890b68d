package runtime

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cepshed/internal/checkpoint"
	"cepshed/internal/event"
	"cepshed/internal/nfa"
)

// Rig runs one query the way a registry does, so that the runtime's
// durability tests exercise the record layout production writes: it
// owns the input log (in <Dir>/log, the runtime's snapshots and dead
// letters in Dir), builds the runtime with NewShared as for a
// manifest-restored query (every logged event is the query's to
// replay), and offers through Gate, Claim and Deliver, appending each
// admitted event as an E record and advancing the log's routed
// watermark under one lock, as Registry.OfferPlaced does. With a nil
// checkpoint config it runs the same pass without a log. It is exported
// for the parity test against the registry (package runtime_test).
type Rig struct {
	*Runtime
	log   *checkpoint.Log
	mu    sync.Mutex       // the registry's offerMu
	batch checkpoint.Batch // under mu
}

// OpenRig opens the rig on pool (nil: the runtime's private one).
func OpenRig(tb testing.TB, m *nfa.Machine, cfg Config, pool *Pool, dur *checkpoint.Config) *Rig {
	tb.Helper()
	g := &Rig{}
	var dir string
	if dur != nil {
		dir = dur.Dir
		log, err := checkpoint.OpenLog(*dur, filepath.Join(dir, "log"), checkpoint.Fingerprint("registry", "input-log"))
		if err != nil {
			tb.Fatal(err)
		}
		g.log = log
	}
	g.Runtime = NewShared(m, cfg, pool, g.log, dir, func(*event.Event) bool { return true })
	if g.log != nil {
		go func() {
			g.WaitRecovered()
			g.log.EndBoot()
		}()
	}
	return g
}

// Offer offers one event; it reports whether the door admitted it.
func (g *Rig) Offer(e *event.Event) bool { return g.OfferBatch([]*event.Event{e}) == 1 }

// OfferBatch offers events, each to its key's shard, and returns how
// many were accepted.
func (g *Rig) OfferBatch(events []*event.Event) int {
	if len(events) == 0 {
		return 0
	}
	var c Claim
	g.mu.Lock()
	gate := g.Gate(time.Now())
	var took []*event.Event
	var top uint64
	for _, e := range events {
		top = max(top, e.Seq)
		if gate.Admits(-1, e) {
			took = append(took, e)
		}
	}
	gate.Done()
	if g.log != nil {
		g.batch.Events = append(g.batch.Events, took...)
		// A failed append disables the shards' durability at their next
		// flush of the same log; the registry only logs it.
		_ = g.log.AppendBatch(&g.batch)
		g.batch.Reset()
	}
	if len(took) > 0 {
		g.Claim(&c, took, nil)
	}
	if g.log != nil {
		g.log.MarkRouted(top)
	}
	g.mu.Unlock()
	return g.Deliver(&c)
}

// Close drains the runtime, then closes the log.
func (g *Rig) Close() {
	g.Runtime.Close()
	if g.log != nil {
		_ = g.log.Close() // fails after a test's Abort; Registry.Close only logs it
	}
}

// Kill crashes the runtime, then aborts the log.
func (g *Rig) Kill() {
	g.Runtime.Kill()
	if g.log != nil {
		g.log.Abort()
	}
}
