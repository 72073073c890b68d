package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/registry"
	"cepshed/internal/runtime"
)

// tcpEdge is one loopback TCP connection served by the real serveConn.
type tcpEdge struct {
	t    *testing.T
	s    *server
	c    *net.TCPConn
	done chan struct{} // closed when serveConn has returned
}

func dialEdge(t *testing.T, s *server) *tcpEdge {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		ln.Close()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		s.serveConn(conn)
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		<-done
	})
	return &tcpEdge{t: t, s: s, c: c.(*net.TCPConn), done: done}
}

func (e *tcpEdge) write(data string) {
	e.t.Helper()
	if _, err := e.c.Write([]byte(data)); err != nil {
		e.t.Fatalf("write: %v", err)
	}
}

// waitFor polls the registry snapshot until ok holds; every wait in this
// file is for something the server owes without further input.
func (e *tcpEdge) waitFor(what string, ok func(registry.Snapshot) bool) {
	e.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok(e.s.reg.Snapshot()) {
		if time.Now().After(deadline) {
			e.t.Fatalf("%s: still not true after 10s; snapshot %+v", what, e.s.reg.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
}

func (e *tcpEdge) served() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// gate is a BeforeProcess hook that stalls the workers while held.
// Tests register release as a cleanup after building the server, so a
// failure with the gate held cannot wedge the registry's Close.
type gate struct {
	mu sync.Mutex
	ch chan struct{}
}

func (g *gate) hold() {
	g.mu.Lock()
	g.ch = make(chan struct{})
	g.mu.Unlock()
}

func (g *gate) release() {
	g.mu.Lock()
	if g.ch != nil {
		close(g.ch)
		g.ch = nil
	}
	g.mu.Unlock()
}

func (g *gate) beforeProcess(int, *event.Event) {
	g.mu.Lock()
	ch := g.ch
	g.mu.Unlock()
	if ch != nil {
		<-ch
	}
}

// matchLog is an OnMatches sink recording each match as "seq:type,...".
type matchLog struct {
	mu   sync.Mutex
	seen []string
}

func (l *matchLog) sink(_ int, ms []engine.Match) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, m := range ms {
		var b strings.Builder
		for i, e := range m.Events {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d:%s", e.Seq, e.Type)
		}
		l.seen = append(l.seen, b.String())
	}
}

func (l *matchLog) matches() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.seen...)
}

// q1Line renders an event of the one Q1 match A(V=1) B(V=2) C(V=3) on ID
// 7, or of a type no query subscribes to.
func q1Line(typ string, ms int) string {
	return fmt.Sprintf(`{"type":%q,"time":%d,"attrs":{"ID":7,"V":%d}}`+"\n", typ, ms*1_000_000, ms)
}

// wantOneMatch requires exactly the Q1 match over the first three
// events the server stamped, in line order.
func wantOneMatch(t *testing.T, log *matchLog) {
	t.Helper()
	if got := log.matches(); len(got) != 1 || got[0] != "0:A,1:B,2:C" {
		t.Errorf("matches = %q, want one match 0:A,1:B,2:C", got)
	}
}

// TestTCPEdge drives the TCP ingest edge through a real serveConn. The
// reader batches, so each row pins one thing batching must not change;
// the invariant behind rows i, ii and v is that no decoded event is held
// across a socket read.
func TestTCPEdge(t *testing.T) {
	quiet := func(t *testing.T, cfg runtime.Config) (*server, *matchLog) {
		log := &matchLog{}
		cfg.OnMatches = log.sink
		s := newTestServer(t, cfg)
		s.tcpIdle = time.Minute // rows that want the idle deadline shorten it
		return s, log
	}

	t.Run("i/one line then silence", func(t *testing.T) {
		s, log := quiet(t, runtime.Config{})
		s.ingest(strings.NewReader(q1Line("A", 1) + q1Line("B", 2)))
		e := dialEdge(t, s)
		e.write(q1Line("C", 3))
		e.waitFor("the lone line's match", func(snap registry.Snapshot) bool { return snap.Matches == 1 })
		wantOneMatch(t, log)
		if e.served() {
			t.Error("connection closed; the match must not have needed that")
		}
	})

	t.Run("ii/write ends mid-line", func(t *testing.T) {
		s, log := quiet(t, runtime.Config{})
		e := dialEdge(t, s)
		last := q1Line("C", 3)
		e.write(q1Line("A", 1) + q1Line("B", 2) + last[:20])
		e.waitFor("the two complete lines offered", func(snap registry.Snapshot) bool { return snap.EventsIn == 2 })
		if got := log.matches(); len(got) != 0 {
			t.Fatalf("matches before the split line completed: %q", got)
		}
		e.write(last[20:])
		e.waitFor("the split line's match", func(snap registry.Snapshot) bool { return snap.Matches == 1 })
		wantOneMatch(t, log)
	})

	t.Run("iii/bad line between good ones", func(t *testing.T) {
		s, log := quiet(t, runtime.Config{})
		e := dialEdge(t, s)
		e.write(q1Line("A", 1) + "garbage line\n" + q1Line("B", 2) + q1Line("C", 3))
		e.waitFor("the match around the bad line", func(snap registry.Snapshot) bool { return snap.Matches == 1 })
		wantOneMatch(t, log)
		if got := s.badLine.Load(); got != 1 {
			t.Errorf("bad_lines = %d, want 1", got)
		}
		dls := s.reg.DeadLetters()
		if len(dls) != 1 || dls[0].Payload != "garbage line" || !strings.Contains(dls[0].Reason, "line 2") {
			t.Errorf("dead letters = %+v, want the garbage payload at line 2", dls)
		}
	})

	t.Run("iv/one NACK per rejection burst", func(t *testing.T) {
		// One shard with room for four queued batches and a worker the test
		// can stall: four single-line offers behind a stalled one fill the
		// queue (fill 0, .25, .5, .75 admit; 1.0 is LevelReject). The bound
		// only switches the ladder on; latency never trips it. QueueDepth
		// also counts the stalled event's batch, still in the worker's hands.
		gate := &gate{}
		s, _ := quiet(t, runtime.Config{QueueLen: 4, Bound: time.Hour, BeforeProcess: gate.beforeProcess})
		t.Cleanup(gate.release)
		e := dialEdge(t, s)
		nacks := make(chan int, 1)
		go func() {
			n := 0
			for sc := bufio.NewScanner(e.c); sc.Scan(); {
				if strings.HasPrefix(sc.Text(), `{"nack":"overloaded"`) {
					n++
				} else {
					t.Errorf("unexpected line from the server: %q", sc.Text())
				}
			}
			nacks <- n
		}()
		var in, rejected uint64
		burst := func() {
			gate.hold()
			e.write(q1Line("A", 1))
			in++
			e.waitFor("the stalled event taken", func(snap registry.Snapshot) bool { return snap.EventsIn == in })
			for depth := 1; depth <= 4; depth++ {
				e.write(q1Line("A", 1))
				e.waitFor("a line queued", func(snap registry.Snapshot) bool {
					return snap.Queries[0].Runtime.Shards[0].QueueDepth == depth+1
				})
			}
			in += 4
			for i := 0; i < 3; i++ { // one burst, three rejected batches
				e.write(q1Line("A", 1))
				rejected++
				e.waitFor("a line rejected", func(snap registry.Snapshot) bool { return snap.AdmissionRejected == rejected })
			}
			gate.release()
			e.waitFor("the queue drained", func(snap registry.Snapshot) bool { return snap.EventsIn == in })
		}
		burst()
		e.write(q1Line("A", 1)) // accepted: ends the burst, earns no NACK
		in++
		e.waitFor("the accepted line", func(snap registry.Snapshot) bool { return snap.EventsIn == in })
		burst()
		e.c.CloseWrite()
		select {
		case n := <-nacks:
			if n != 2 {
				t.Errorf("%d NACK lines over two rejection bursts of three batches each, want 2", n)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("server did not close the connection after the peer's FIN")
		}
	})

	// Every event the decoder returned ends in one counted disposition,
	// however the connection ends. Every fifth line is of a type nothing
	// subscribes to.
	const routed, unrouted = 40, 10
	lines := func(from, to int) string {
		var b strings.Builder
		for i := from; i < to; i++ {
			if i%5 == 4 {
				b.WriteString(q1Line("Z", 1))
			} else {
				b.WriteString(q1Line("A", 1))
			}
		}
		return b.String()
	}
	conserved := func(t *testing.T, e *tcpEdge, stalled uint64) {
		t.Helper()
		select {
		case <-e.done:
		case <-time.After(10 * time.Second):
			t.Fatal("serveConn still running")
		}
		e.waitFor("every decoded event counted", func(snap registry.Snapshot) bool {
			return snap.EventsIn+snap.AdmissionRejected+snap.Unrouted >= routed+unrouted
		})
		if snap := e.s.reg.Snapshot(); snap.EventsIn != routed || snap.Unrouted != unrouted || snap.AdmissionRejected != 0 {
			t.Errorf("events_in = %d, unrouted = %d, admission_rejected = %d, want %d, %d and 0",
				snap.EventsIn, snap.Unrouted, snap.AdmissionRejected, routed, unrouted)
		}
		if got := e.s.stalled.Load(); got != stalled {
			t.Errorf("stalled = %d, want %d", got, stalled)
		}
	}

	t.Run("v/closed by the peer", func(t *testing.T) {
		s, _ := quiet(t, runtime.Config{})
		e := dialEdge(t, s)
		e.write(lines(0, routed+unrouted))
		e.c.Close()
		conserved(t, e, 0)
	})

	t.Run("v/closed by the idle deadline", func(t *testing.T) {
		s, _ := quiet(t, runtime.Config{})
		s.tcpIdle = 50 * time.Millisecond
		e := dialEdge(t, s)
		e.write(lines(0, routed+unrouted))
		conserved(t, e, 1)
	})

	t.Run("v/closed by closeConns mid-offer", func(t *testing.T) {
		// A stalled worker and a one-batch queue: the first chunk's batch is
		// taken, the second fills the queue, the third leaves the reader
		// blocked in its offer with decoded events in hand when the drain
		// closes the connection under it. QueueDepth counts the taken batch
		// as one item while the stalled worker holds it.
		gate := &gate{}
		s, _ := quiet(t, runtime.Config{QueueLen: 1, BeforeProcess: gate.beforeProcess})
		t.Cleanup(gate.release)
		e := dialEdge(t, s)
		gate.hold()
		e.write(lines(0, 10))
		e.waitFor("the first batch taken", func(snap registry.Snapshot) bool { return snap.EventsIn == 1 })
		e.write(lines(10, 20))
		e.waitFor("the second batch queued", func(snap registry.Snapshot) bool {
			return snap.Queries[0].Runtime.Shards[0].QueueDepth == 1+7+8
		})
		e.write(lines(20, routed+unrouted))
		e.waitFor("the third batch on offer", func(snap registry.Snapshot) bool {
			return snap.Queries[0].Runtime.Shards[0].QueueDepth == routed
		})
		s.closeConns()
		gate.release()
		conserved(t, e, 0)
	})
}
