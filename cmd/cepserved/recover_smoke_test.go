package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestRecoverSmoke is the end-to-end durability drill: run the real
// binary against a state directory with two tenants × two queries
// registered over the admin API and fed over /ingest, SIGKILL it
// mid-stream, restart it, and require the second process to recover all
// four queries from the one input log — counters and partial matches,
// not a cold start — without printing any match line twice across the
// two processes; then shut it down cleanly. This is what
// `make recover-smoke` runs.
func TestRecoverSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	bin := filepath.Join(t.TempDir(), "cepserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	stateDir := t.TempDir()
	args := []string{
		"-listen", "127.0.0.1:0",
		"-strategy", "None",
		"-bound", "0",
		"-shards", "2",
		"-state-dir", stateDir,
		"-checkpoint-every", "1500",
		"-wal-flush", "1",
		"-print-matches",
	}

	// ---- First incarnation: register, feed until it has snapshotted,
	// then SIGKILL.
	var out1, out2 syncBuffer
	p1 := startServerStdout(t, bin, args, &out1)
	base := "http://" + p1.addr
	for _, tenant := range []string{"acme", "globex"} {
		httpDo(t, "PUT", base+"/tenants", fmt.Sprintf(`{"name":%q}`, tenant), http.StatusNoContent)
	}
	for _, q := range []struct{ tenant, name, text string }{
		{"acme", "abc", `PATTERN SEQ(A a, B b, C c) WHERE a.ID = b.ID AND a.ID = c.ID WITHIN 50ms`},
		{"acme", "ab", `PATTERN SEQ(A a, B b) WHERE a.ID = b.ID WITHIN 20ms`},
		{"globex", "bc", `PATTERN SEQ(B b, C c) WHERE b.ID = c.ID WITHIN 20ms`},
		{"globex", "ac", `PATTERN SEQ(A a, C c) WHERE a.ID = c.ID WITHIN 20ms`},
	} {
		body := fmt.Sprintf(`{"tenant":%q,"name":%q,"query":%q}`, q.tenant, q.name, q.text)
		httpDo(t, "POST", base+"/queries?wait=1", body, http.StatusCreated)
	}
	stop := feed(p1.addr)
	var pre stats
	waitStats(t, p1.addr, 30*time.Second, func(s stats) bool {
		pre = s
		return s.Snapshots >= 1 && s.EventsIn > 3000 && s.Matches > 0
	})
	if err := p1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p1.cmd.Wait()
	stop()

	// ---- Second incarnation: must recover every query, not cold-start.
	p2 := startServerStdout(t, bin, args, &out2)
	defer func() {
		p2.cmd.Process.Kill()
		p2.cmd.Wait()
	}()
	select {
	case n := <-p2.recovered:
		if n != "4" {
			t.Fatalf("restart recovered %s queries, want all 4", n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("restart never logged its recovery")
	}
	stop = feed(p2.addr)
	var post stats
	waitStats(t, p2.addr, 30*time.Second, func(s stats) bool {
		post = s
		return s.EventsIn >= pre.EventsIn && s.Matches >= pre.Matches
	})
	if post.ColdStarts != 0 {
		t.Fatalf("restart cold-started %d shard(s); wanted snapshot+log recovery", post.ColdStarts)
	}
	waitStats(t, p2.addr, 30*time.Second, func(s stats) bool {
		// The recovered engines must be carrying live partial matches.
		return s.LivePMs > 0
	})
	stop()

	// ---- Clean shutdown: SIGTERM drains and exits 0.
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p2.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit within 30s of SIGTERM")
	}

	// ---- Exactly once across the SIGKILL: no match line twice.
	seen := map[string]int{}
	lines := 0
	for _, out := range []string{out1.String(), out2.String()} {
		for _, line := range strings.SplitAfter(out, "\n") {
			if !strings.HasPrefix(line, `{"tenant":`) || !strings.HasSuffix(line, "\n") {
				continue // the final snapshot, or a line the SIGKILL cut
			}
			lines++
			if seen[line]++; seen[line] == 2 {
				t.Errorf("match printed twice across the restart: %s", line)
			}
		}
	}
	if lines == 0 {
		t.Fatal("no match lines printed; the drill proves nothing")
	}
}

// feed posts NDJSON batches of A/B/C events over 40 keys to the server
// at addr until the returned stop is called. Errors (the server being
// killed under it) end nothing: stop does.
func feed(addr string) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; {
			select {
			case <-quit:
				return
			default:
			}
			var b strings.Builder
			for j := 0; j < 50; j++ {
				fmt.Fprintf(&b, `{"type":%q,"attrs":{"ID":%d,"V":1}}`+"\n", []string{"A", "B", "C"}[i%3], (i/3)%40)
				i++
			}
			if resp, err := http.Post("http://"+addr+"/ingest", "application/x-ndjson", strings.NewReader(b.String())); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// syncBuffer is a bytes.Buffer safe for the server's stdout copier and
// the test reading it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

type stats struct {
	EventsIn    uint64 `json:"events_in"`
	Matches     uint64 `json:"matches"`
	LivePMs     int64  `json:"live_partial_matches"`
	Snapshots   uint64 `json:"snapshots"`
	WALReplayed uint64 `json:"wal_replayed"`
	ColdStarts  uint64 `json:"cold_starts"`
}

type serverProc struct {
	cmd  *exec.Cmd
	addr string
	// tcpAddr receives the bound address of the -tcp listener, which the
	// server logs after the HTTP one; recovered the number of queries the
	// server's boot recovery restored, when it restored any.
	tcpAddr   chan string
	recovered chan string
}

// startServer launches the binary and scrapes the actual listen address
// from its "HTTP on host:port" log line (the server binds :0 in tests).
func startServer(t *testing.T, bin string, args []string) *serverProc {
	return startServerStdout(t, bin, args, os.Stderr)
}

// startServerStdout is startServer with the server's standard output
// (match lines, final snapshot) going to stdout.
func startServerStdout(t *testing.T, bin string, args []string, stdout io.Writer) *serverProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	tcpCh := make(chan string, 1)
	recCh := make(chan string, 1)
	// loggedAddr sends the address following marker in line, if any, to ch.
	loggedAddr := func(line, marker string, ch chan string) {
		if i := strings.Index(line, marker); i >= 0 {
			rest := line[i+len(marker):]
			if j := strings.IndexByte(rest, ' '); j > 0 {
				select {
				case ch <- rest[:j]:
				default:
				}
			}
		}
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Log(line)
			loggedAddr(line, "HTTP on ", addrCh)
			loggedAddr(line, "NDJSON TCP on ", tcpCh)
			loggedAddr(line, "cepserved: recovered ", recCh)
		}
	}()
	select {
	case addr := <-addrCh:
		return &serverProc{cmd: cmd, addr: addr, tcpAddr: tcpCh, recovered: recCh}
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatal("server never logged its HTTP address")
		return nil
	}
}

// waitStats polls /stats until ok returns true or the deadline passes.
func waitStats(t *testing.T, addr string, timeout time.Duration, ok func(stats) bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last stats
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("http://%s/stats", addr))
		if err == nil {
			var s stats
			derr := json.NewDecoder(resp.Body).Decode(&s)
			resp.Body.Close()
			if derr == nil {
				last = s
				if ok(s) {
					return
				}
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("stats condition not met within %s; last: %+v", timeout, last)
}
