package runtime

import (
	"context"
	goruntime "runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the worker pool: W worker goroutines servicing the shard
// queues of every runtime registered with it. The shard is the unit of
// state (single-writer engine partition, per-key order), the worker the
// unit of CPU. A worker claims a shard by TryLock on its svc mutex, so
// everything the shard owns is owned by "the worker holding svc" for
// any worker/shard ratio. Stealing moves WHOLE SHARDS, never events, so
// one key's events still pass through one queue in order. A claim is
// bounded (quantumBudget, quantumWall).
//
// Wakeups: producers send a token on p.wake (non-blocking, capacity =
// the worker cap) after enqueueing; an idle worker blocks on the
// channel. Because the token is sent AFTER the push and the token
// channel is buffered, a worker that drains the token and finds nothing
// will still see the item on its next pass — the token cannot be lost
// between a depth check and the blocking receive — unless the shard is
// claimed, whose holder may have looked past the item already. Claimed
// and backed-off shards are therefore polled on a short timer instead.

// idlePoll is the fallback poll interval while some shard has pending
// work that cannot run yet (restart backoff, another worker's claim).
const idlePoll = 2 * time.Millisecond

// Pool is a set of worker goroutines servicing the shards of every
// runtime registered with it. Workers start lazily, one per registered
// shard up to GOMAXPROCS, and run until Stop.
type Pool struct {
	shards atomic.Pointer[[]*shard] // registered shards, copy-on-write under mu
	size   atomic.Int32             // workers started
	wake   chan struct{}            // capacity: the worker cap
	quit   chan struct{}
	stop   sync.Once
	mu     sync.Mutex
	wg     sync.WaitGroup
}

// NewPool builds an empty pool of at most GOMAXPROCS workers.
func NewPool() *Pool { return newPool(goruntime.GOMAXPROCS(0)) }

func newPool(limit int) *Pool {
	p := &Pool{wake: make(chan struct{}, limit), quit: make(chan struct{})}
	p.shards.Store(new([]*shard))
	return p
}

// Stop ends the workers and waits for them to exit; call it once every
// runtime on the pool has closed.
func (p *Pool) Stop() {
	p.stop.Do(func() { close(p.quit) })
	p.wg.Wait()
}

// register adds r's shards and starts the workers they entitle it to.
func (p *Pool) register(r *Runtime) {
	p.mu.Lock()
	defer p.mu.Unlock()
	next := append(slices.Clone(*p.shards.Load()), r.shards...)
	p.shards.Store(&next)
	for w := int(p.size.Load()); w < min(cap(p.wake), len(next)); w++ {
		p.size.Add(1)
		p.wg.Add(1)
		go p.worker(w)
	}
	p.wakeAll() // the new shards need their boot quantum
}

// unregister drops r's retired shards (the old list shows them done).
func (p *Pool) unregister(r *Runtime) {
	p.mu.Lock()
	defer p.mu.Unlock()
	next := slices.DeleteFunc(slices.Clone(*p.shards.Load()), func(s *shard) bool { return s.rt == r })
	p.shards.Store(&next)
}

// worker is one pool goroutine. wid's home shards are {i : i ≡ wid mod
// W} of the registered list; each pass services homes first (cache
// affinity), then steals any other claimable shard.
// Workers run under the pprof label cep_role=worker so CPU profiles can
// prove what runs on the serving path: `make profile-shed` fails the
// build if shedding-set selection symbols ever appear under this label
// (they belong under cep_role=shed_planner).
func (p *Pool) worker(wid int) {
	defer p.wg.Done()
	pprof.Do(context.Background(), pprof.Labels("cep_role", "worker"), func(context.Context) {
		p.workerLoop(wid)
	})
}

func (p *Pool) workerLoop(wid int) {
	for {
		shards := *p.shards.Load()
		n, w := len(shards), int(p.size.Load())
		worked, waiting := false, false
		now := time.Now().UnixNano()
		for i := wid; i < n; i += w {
			wk, wait := tryService(shards[i], now)
			worked = worked || wk
			waiting = waiting || wait
		}
		if !worked {
			// Steal pass: scan the remaining shards, starting just past the
			// home set so concurrent idle workers fan out instead of piling
			// onto shard 0. One successful steal sends the worker back to a
			// full pass — home shards keep priority.
			for off := 1; off < n && !worked; off++ {
				i := (wid + off) % n
				if i%w == wid {
					continue // home shard, already tried
				}
				wk, wait := tryService(shards[i], now)
				if wk {
					worked = true
					shards[i].rt.steals.Add(1)
				}
				waiting = waiting || wait
			}
		}
		if worked {
			continue
		}
		var poll <-chan time.Time // nil: block until woken
		if waiting {
			poll = time.After(idlePoll)
		}
		select {
		case <-p.wake:
		case <-poll:
		case <-p.quit:
			return
		}
	}
}

// tryService claims and services one shard if it both needs service and
// is unclaimed. waiting reports work the caller should poll for rather
// than block on: backed off, or claimed by another worker.
func tryService(s *shard, now int64) (worked, waiting bool) {
	ready, wait := s.needsService(now)
	if !ready {
		return false, wait
	}
	if !s.svc.TryLock() {
		// The holder may already have looked past what made s ready (an
		// offer, Close) and this worker took its wake token: poll, or
		// both may sleep with work queued.
		return false, true
	}
	worked = s.quantum(s.rt)
	s.svc.Unlock()
	return worked, false
}

// wakeOne drops one wake token, never blocking: with the channel full,
// every sleeping worker already has a token waiting.
func (p *Pool) wakeOne() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// wakeAll tops the token channel up to one token per worker.
func (p *Pool) wakeAll() {
	for i := int32(0); i < p.size.Load(); i++ {
		select {
		case p.wake <- struct{}{}:
		default:
			return
		}
	}
}
