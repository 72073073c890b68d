package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRecoverSmoke is the end-to-end durability drill: run the real
// binary against a state directory, SIGKILL it mid-stream, restart it,
// and require the second process to come back with the first one's
// counters and partial matches instead of a cold start — then shut it
// down cleanly. This is what `make recover-smoke` runs.
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
		"-dataset", "ds1",
		"-events", "200000",
		"-rate", "30000",
		"-strategy", "None",
		"-bound", "0",
		"-shards", "2",
		"-state-dir", stateDir,
		"-checkpoint-every", "1500",
		"-wal-flush", "1",
	}

	// ---- First incarnation: run until it has snapshotted, then SIGKILL.
	p1 := startServer(t, bin, args)
	var pre stats
	waitStats(t, p1.addr, 30*time.Second, func(s stats) bool {
		pre = s
		return s.Snapshots >= 1 && s.EventsIn > 3000
	})
	if err := p1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p1.cmd.Wait()

	// ---- Second incarnation: must recover, not cold-start.
	p2 := startServer(t, bin, args)
	defer func() {
		p2.cmd.Process.Kill()
		p2.cmd.Wait()
	}()
	var post stats
	waitStats(t, p2.addr, 30*time.Second, func(s stats) bool {
		post = s
		return s.EventsIn >= pre.EventsIn && s.Matches >= pre.Matches
	})
	if post.ColdStarts != 0 {
		t.Fatalf("restart cold-started %d shard(s); wanted snapshot+WAL recovery", post.ColdStarts)
	}
	waitStats(t, p2.addr, 30*time.Second, func(s stats) bool {
		// The recovered engine must be carrying live partial matches — the
		// whole point of durable state — once replay has refilled windows.
		return s.LivePMs > 0
	})

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
	// server logs after the HTTP one.
	tcpAddr chan string
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
		}
	}()
	select {
	case addr := <-addrCh:
		return &serverProc{cmd: cmd, addr: addr, tcpAddr: tcpCh}
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
