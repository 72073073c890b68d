package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// epoch is the harness clock's origin. Due times, write times and match
// arrival times are all monotonic offsets from it.
var epoch = time.Now()

func now() time.Duration { return time.Since(epoch) }

// matchRec is one match line read from the server's stdout.
type matchRec struct {
	recv    time.Duration // when the line was read, since epoch
	key     uint64        // hash of the match key (the contributing seqs)
	lastSeq uint32        // seq of the completing event = generator index
	query   uint16        // index into the workload's query ids
}

// keySeed makes match-key hashes comparable between the collector and
// the reference.
var keySeed = maphash.MakeSeed()

func hashKey(key []byte) uint64 { return maphash.Bytes(keySeed, key) }

// collector splits the server's stdout: `{"tenant":…}` match lines are
// parsed and recorded while armed, and everything else — the indented
// final snapshot printed at drain — is kept verbatim as the trailer.
type collector struct {
	queries map[string]uint16
	armed   atomic.Bool

	mu   sync.Mutex
	recs []matchRec
	tail bytes.Buffer
	bad  int // match lines that did not parse
}

func newCollector(queryIDs []string) *collector {
	c := &collector{queries: make(map[string]uint16, len(queryIDs))}
	for i, id := range queryIDs {
		c.queries[id] = uint16(i)
	}
	return c
}

// The fields of a match line the collector looks for.
var (
	matchPrefix  = []byte(`{"tenant":`)
	tenantMarker = []byte(`"tenant":"`)
	queryMarker  = []byte(`"query":"`)
	keyMarker    = []byte(`"key":"`)
)

// readPause is how long the collector rests after each read that found
// data. The emitter flushes one line per match, so an eager reader is
// woken once per match — tens of thousands of times a second on the dense
// workloads, on the two cores it shares with the server. Resting lets
// lines pile up into one read; it delays a line's arrival stamp by at
// most the pause, half the pacing tick.
const readPause = 100 * time.Microsecond

// pipeSize is the capacity requested for the stdout pipe: room for a few
// thousand match lines, so a reader that is briefly descheduled does not
// block the emitter (which flushes under a lock the shard workers share).
const pipeSize = 1 << 20

// paused rests after every read that returned data.
type paused struct{ r io.Reader }

func (p paused) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	if n > 0 {
		sleepUntil(now() + readPause)
	}
	return n, err
}

// run consumes r until EOF. It must keep reading for the server's whole
// life: a full pipe stalls the emitter and, behind it, the shard workers.
func (c *collector) run(r io.Reader) {
	if f, ok := r.(*os.File); ok {
		// Best effort: an unprivileged process may be capped below this.
		_, _, _ = syscall.Syscall(syscall.SYS_FCNTL, f.Fd(), syscall.F_SETPIPE_SZ, pipeSize)
	}
	br := bufio.NewReaderSize(paused{r}, pipeSize)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			if bytes.HasPrefix(line, matchPrefix) {
				if c.armed.Load() {
					rec, ok := parseMatchLine(line, c.queries)
					rec.recv = now()
					c.mu.Lock()
					if ok {
						c.recs = append(c.recs, rec)
					} else {
						c.bad++
					}
					c.mu.Unlock()
				}
			} else {
				c.mu.Lock()
				c.tail.Write(line)
				c.mu.Unlock()
			}
		}
		if err == bufio.ErrBufferFull {
			continue // an over-long line arrives in pieces; none is expected
		}
		if err != nil {
			return
		}
	}
}

// arm starts recording with room for n matches.
func (c *collector) arm(n int) {
	c.mu.Lock()
	c.recs = make([]matchRec, 0, n)
	c.mu.Unlock()
	c.armed.Store(true)
}

func (c *collector) records() ([]matchRec, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recs, c.bad
}

func (c *collector) trailer() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tail.Bytes()
}

// parseMatchLine reads the three fields scoring needs from
//
//	{"tenant":"t","query":"q","match":{"shard":0,"detected":1,"key":"3,9,12","events":[…]}}
//
// without allocating: tenant and query name the registered query and the
// key is the comma-joined seqs of the matched events in pattern order,
// so its last number is the completing event. Tenant, query and key are
// plain ASCII here, so no JSON unescaping is needed.
func parseMatchLine(line []byte, queries map[string]uint16) (matchRec, bool) {
	var rec matchRec
	tenant, rest, ok := quoted(line, tenantMarker)
	if !ok {
		return rec, false
	}
	name, rest, ok := quoted(rest, queryMarker)
	if !ok {
		return rec, false
	}
	key, _, ok := quoted(rest, keyMarker)
	if !ok || len(key) == 0 {
		return rec, false
	}
	var id [128]byte
	q, ok := queries[string(append(append(append(id[:0], tenant...), '/'), name...))]
	if !ok {
		return rec, false
	}
	last := key[bytes.LastIndexByte(key, ',')+1:]
	var seq uint64
	for _, ch := range last {
		if ch < '0' || ch > '9' {
			return rec, false
		}
		seq = seq*10 + uint64(ch-'0')
	}
	if len(last) == 0 || seq > 1<<32-1 {
		return rec, false
	}
	return matchRec{key: hashKey(key), lastSeq: uint32(seq), query: q}, true
}

// quoted returns the string value that follows marker and the bytes
// after its closing quote.
func quoted(b, marker []byte) (val, rest []byte, ok bool) {
	i := bytes.Index(b, marker)
	if i < 0 {
		return nil, nil, false
	}
	b = b[i+len(marker):]
	j := bytes.IndexByte(b, '"')
	if j < 0 {
		return nil, nil, false
	}
	return b[:j], b[j+1:], true
}

// sender is one ingest edge as the client sees it.
type sender interface {
	send(batch []byte) error
	close() error
}

type tcpSender struct{ conn net.Conn }

func dialTCP(addr string) (*tcpSender, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &tcpSender{conn: conn}, nil
}

func (t *tcpSender) send(batch []byte) error {
	_, err := t.conn.Write(batch)
	return err
}

func (t *tcpSender) close() error { return t.conn.Close() }

type httpSender struct {
	client *http.Client
	url    string
}

func (h *httpSender) send(batch []byte) error {
	resp, err := h.client.Post(h.url, "application/x-ndjson", bytes.NewReader(batch))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // counts are re-read from /stats; drain so the connection is reused
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /ingest: status %d", resp.StatusCode)
	}
	return nil
}

func (h *httpSender) close() error {
	h.client.CloseIdleConnections()
	return nil
}

// paceStats is what the open-loop generator observed about itself over
// the scored part of a drive.
type paceStats struct {
	lateness  []time.Duration // per write: scheduled wake-up, or the previous send's return if later → write start
	sendTimes []time.Duration // per write: time spent inside send
	writes    int
}

// pace sends in open loop: event i goes out when due[i] has elapsed
// since start, whatever the server is doing. Events falling due within
// one tick share a write, so the loop wakes at most once per tick. Just
// before writing event in.marks[k] it calls mark(k); from the first mark
// on it keeps its own scheduling lateness and send durations.
func pace(ctx context.Context, in *input, out sender, tick time.Duration, start time.Duration, mark func(k int)) (paceStats, error) {
	// A dedicated thread: the loop lives in nanosleep and write, and must
	// not queue behind other goroutines for a thread when it wakes.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var ps paceStats
	n := len(in.due)
	next := 0 // index into in.marks of the next boundary
	var begin, end time.Duration
	for i := 0; i < n; {
		if err := ctx.Err(); err != nil {
			return ps, err
		}
		// One write per tick, even if more events are already due: that
		// bounds the loop's own CPU use.
		wake := start + in.due[i]
		if i > 0 {
			wake = max(wake, begin+tick)
		}
		sleepUntil(wake)
		t := now() - start
		j := i + 1
		for j < n && in.due[j] <= t {
			j++
		}
		// Keep slice boundaries on write boundaries so counters read at a
		// mark line up with the events written after it.
		if next < len(in.marks) && in.marks[next] < n {
			if i == in.marks[next] {
				mark(next)
				next++
			} else if j > in.marks[next] {
				j = in.marks[next]
			}
		}
		begin = now()
		if err := out.send(in.line(i, j)); err != nil {
			return ps, fmt.Errorf("send events %d..%d: %w", i, j, err)
		}
		// A send that outlasts its tick (a slow POST) delays the next one;
		// that wait is the server's and is already in the latencies, which
		// are timed from due times. Lateness is the loop's own.
		late := begin - max(wake, end)
		end = now()
		if next > 0 {
			ps.lateness = append(ps.lateness, late)
			ps.sendTimes = append(ps.sendTimes, end-begin)
			ps.writes++
		}
		i = j
	}
	return ps, nil
}

// sleepUntil blocks the calling thread in nanosleep(2) until the harness
// clock reads at least deadline. time.Sleep is not used: the Go runtime
// rounds an idle process's timers up to the netpoller's millisecond,
// which is several pacing ticks.
func sleepUntil(deadline time.Duration) {
	for {
		rest := deadline - now()
		if rest <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(rest))
		_ = syscall.Nanosleep(&ts, nil) // EINTR (the runtime's preemption signal) just loops
	}
}
