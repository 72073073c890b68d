package fault

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
)

// NetChaos is an http.RoundTripper wrapper that injects network faults
// per destination host: full blocks (partitions), transient errors,
// and the nastiest one — drop-after-send, where the request
// IS delivered but the response is discarded, so the caller cannot
// tell delivery from loss. Wrapping each node's HTTP client with its
// own NetChaos makes asymmetric partitions trivial: block A→B without
// touching B→A.
//
// Faults are keyed by req.URL.Host and driven by explicit per-link
// request counters, never the wall clock or a random draw, so a chaos
// run replays identically. Safe for concurrent use.
type NetChaos struct {
	next http.RoundTripper

	mu    sync.Mutex
	links map[string]*linkFaults

	// Injection counters, for test assertions.
	blockedCount atomic.Uint64
	erroredCount atomic.Uint64
	droppedCount atomic.Uint64
}

type linkFaults struct {
	blocked  bool // partition: fail before the request is sent
	errNext  int  // fail the next N requests before sending
	dropNext int  // deliver the next N requests, discard responses
	// flapUp/flapDown, when set, cycle the link by request count:
	// flapUp requests pass, then flapDown requests are blocked.
	flapUp, flapDown int
	reqs             int // per-link request counter driving the flap cycle
}

// ErrInjected marks every failure NetChaos fabricates, so tests can
// tell an injected fault from a real transport error.
var ErrInjected = errors.New("fault: injected network error")

// NewNetChaos wraps next (nil: http.DefaultTransport) with a
// fault-free injector; arm faults with the setters.
func NewNetChaos(next http.RoundTripper) *NetChaos {
	if next == nil {
		next = http.DefaultTransport
	}
	return &NetChaos{next: next, links: map[string]*linkFaults{}}
}

func (c *NetChaos) link(host string) *linkFaults {
	lf := c.links[host]
	if lf == nil {
		lf = &linkFaults{}
		c.links[host] = lf
	}
	return lf
}

// Block partitions this side's link to each host: every request fails
// before it is sent, like a dropped route.
func (c *NetChaos) Block(hosts ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range hosts {
		c.link(h).blocked = true
	}
}

// Unblock heals the link to each host.
func (c *NetChaos) Unblock(hosts ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range hosts {
		c.link(h).blocked = false
	}
}

// FailNext makes the next n requests to host fail before sending —
// a transient network error the caller should retry.
func (c *NetChaos) FailNext(host string, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.link(host).errNext = n
}

// DropAfterSend delivers the next n requests to host but discards
// their responses and reports an error — the ambiguous fault: the
// receiver processed the request, the sender cannot know. A retry
// without idempotence double-delivers; this is the fault the batch-ID
// dedup exists for.
func (c *NetChaos) DropAfterSend(host string, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.link(host).dropNext = n
}

// Flap cycles the link to host deterministically by request count:
// `up` requests pass, then `down` requests are blocked, repeating.
// up+down <= 0 clears the flap schedule.
func (c *NetChaos) Flap(host string, up, down int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lf := c.link(host)
	if up <= 0 && down <= 0 {
		lf.flapUp, lf.flapDown = 0, 0
		return
	}
	lf.flapUp, lf.flapDown, lf.reqs = up, down, 0
}

// Heal clears every fault on every link.
func (c *NetChaos) Heal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.links = map[string]*linkFaults{}
}

// Counts reports how many requests were blocked/errored pre-send and
// how many were delivered with the response dropped.
func (c *NetChaos) Counts() (blocked, errored, dropped uint64) {
	return c.blockedCount.Load(), c.erroredCount.Load(), c.droppedCount.Load()
}

// RoundTrip applies the destination link's faults, then delegates.
func (c *NetChaos) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	lf := c.links[req.URL.Host]
	verdict := 0 // 0 pass, 1 blocked, 2 errored, 3 drop-after-send
	if lf != nil {
		lf.reqs++
		switch {
		case lf.blocked:
			verdict = 1
		case lf.flapUp+lf.flapDown > 0 && (lf.reqs-1)%(lf.flapUp+lf.flapDown) >= lf.flapUp:
			verdict = 1
		case lf.errNext > 0:
			lf.errNext--
			verdict = 2
		case lf.dropNext > 0:
			lf.dropNext--
			verdict = 3
		}
	}
	c.mu.Unlock()

	switch verdict {
	case 1:
		c.blockedCount.Add(1)
		closeReqBody(req)
		return nil, fmt.Errorf("%w: %s unreachable (partition)", ErrInjected, req.URL.Host)
	case 2:
		c.erroredCount.Add(1)
		closeReqBody(req)
		return nil, fmt.Errorf("%w: connection to %s reset", ErrInjected, req.URL.Host)
	case 3:
		resp, err := c.next.RoundTrip(req)
		c.droppedCount.Add(1)
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
		}
		return nil, fmt.Errorf("%w: response from %s dropped after send", ErrInjected, req.URL.Host)
	}
	return c.next.RoundTrip(req)
}

func closeReqBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}
