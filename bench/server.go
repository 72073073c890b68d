package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cepshed/internal/registry"
)

// repoRoot walks up from the working directory to the checkout that
// holds cmd/cepserved: the driver runs the harness from the root, a
// developer from bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "cepserved", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/cepserved not found above the working directory: run from a cepshed checkout")
		}
		dir = parent
	}
}

// buildServer compiles the real cepserved from the checkout's source,
// once per harness process.
func buildServer(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "cepserved")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/cepserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/cepserved: %w\n%s", err, out)
	}
	return bin, nil
}

// freeAddr reserves a loopback port by binding and releasing it. The
// server's -tcp log line echoes the flag rather than the bound port, so
// ":0" cannot be used there; the same helper serves -listen for symmetry.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// stats is the GET /stats body: the registry snapshot plus the edge
// counters cepserved adds beside it.
type stats struct {
	registry.Snapshot
	BadLines uint64 `json:"bad_lines"`
}

// server is one spawned cepserved process.
type server struct {
	cmd      *exec.Cmd
	base     string // http://host:port
	tcpAddr  string
	stateDir string
	matches  *collector
	client   *http.Client

	mu         sync.Mutex
	stderrTail []string // last log lines, for failure reports

	replayDone chan struct{} // closed on "replay pass done"
	exited     chan struct{} // closed once the process has been reaped
	exitErr    error         // cmd.Wait result; read after exited is closed
}

// startServer spawns cepserved for a workload and blocks until it is
// serving: /healthz answers ok, the warm-up replay has finished, every
// query of the workload is registered and the shard queues are empty.
// The returned duration is the workload's set-up time (cost-model
// training included).
func startServer(ctx context.Context, bin string, w *workload, tmp string) (*server, time.Duration, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	s := &server{
		base:       "http://" + httpAddr,
		matches:    newCollector(w.queryIDs()),
		client:     &http.Client{Timeout: 30 * time.Second},
		replayDone: make(chan struct{}),
		exited:     make(chan struct{}),
	}
	args := []string{
		"-listen", httpAddr,
		"-dataset", w.dataset,
		"-events", strconv.Itoa(w.warmEvents),
		"-rate", "0",
		"-shards", "2",
		"-strategy", "Hybrid",
		"-bound", w.theta.String(),
		"-print-matches",
	}
	if w.edge == edgeTCP {
		if s.tcpAddr, err = freeAddr(); err != nil {
			return nil, 0, err
		}
		args = append(args, "-tcp", s.tcpAddr)
	}
	if w.durable {
		if s.stateDir, err = os.MkdirTemp(tmp, "state-"); err != nil {
			return nil, 0, err
		}
		args = append(args, "-state-dir", s.stateDir)
	}
	if !w.arbiter {
		args = append(args, "-no-arbiter")
	}
	s.cmd = exec.Command(bin, args...)
	// A harness killed without a chance to clean up must not leave a
	// server behind.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	begin := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start cepserved: %w", err)
	}
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		s.scanStderr(stderr)
	}()
	go func() {
		defer readers.Done()
		s.matches.run(stdout)
	}()
	go func() {
		// Wait closes the pipes, so it must follow both readers' EOF.
		readers.Wait()
		s.exitErr = s.cmd.Wait()
		close(s.exited)
	}()

	fail := func(err error) (*server, time.Duration, error) {
		s.kill()
		return nil, 0, fmt.Errorf("%w\n--- cepserved log tail ---\n%s", err, s.logTail())
	}
	if err := s.waitHealthy(ctx); err != nil {
		return fail(err)
	}
	select {
	case <-s.replayDone:
	case <-ctx.Done():
		return fail(ctx.Err())
	case <-s.exited:
		return fail(errors.New("cepserved exited during warm-up"))
	}
	for _, t := range w.tenants {
		body, _ := json.Marshal(t) // a struct of strings and numbers cannot fail to marshal
		if err := s.do(ctx, http.MethodPut, "/tenants", body, http.StatusNoContent); err != nil {
			return fail(err)
		}
	}
	for _, q := range w.queries {
		body, _ := json.Marshal(q)
		if err := s.do(ctx, http.MethodPost, "/queries?wait=1", body, http.StatusCreated); err != nil {
			return fail(err)
		}
	}
	if len(w.queries) > 0 {
		// -dataset always registers its paper query; the workload's own
		// queries replace it.
		if err := s.do(ctx, http.MethodDelete, "/queries/default/main?purge=1", nil, http.StatusNoContent); err != nil {
			return fail(err)
		}
	}
	setup := time.Since(begin)
	if _, err := s.quiesce(ctx, 0); err != nil {
		return fail(err)
	}
	return s, setup, nil
}

func (s *server) scanStderr(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		s.mu.Lock()
		s.stderrTail = append(s.stderrTail, line)
		if len(s.stderrTail) > 40 {
			s.stderrTail = s.stderrTail[1:]
		}
		s.mu.Unlock()
		if !done && strings.Contains(line, "replay pass done") {
			done = true
			close(s.replayDone)
		}
	}
}

func (s *server) logTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.stderrTail, "\n")
}

func (s *server) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.exited:
			return errors.New("cepserved exited before /healthz answered")
		default:
		}
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // body is a status line; only the code matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return errors.New("cepserved not healthy after 2 minutes")
}

func (s *server) do(ctx context.Context, method, path string, body []byte, want int) error {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10)) // diagnostic text only
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(msg))
	}
	return nil
}

// scrape reads /stats.
func (s *server) scrape(ctx context.Context) (stats, error) {
	var st stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return st, fmt.Errorf("GET /stats: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode /stats: %w", err)
	}
	return st, nil
}

// quiesce polls /stats until the server has read at least wantEdge
// events off its ingest edge and every shard queue is empty, and returns
// that snapshot. On a TCP edge, bytes can sit in socket buffers after the
// client's write returns; and events_in is counted when a worker takes
// an event off its queue, not when it is offered — so both conditions
// are needed before counters can be compared with what was sent.
func (s *server) quiesce(ctx context.Context, wantEdge uint64) (stats, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.scrape(ctx)
		if err != nil {
			return st, err
		}
		if edgeCount(st) >= wantEdge && drained(st.Snapshot) {
			return st, nil
		}
		if time.Now().After(deadline) {
			// Report what there is; the conservation check names the gap.
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// edgeCount is every (event, query) pair and unrouted event the ingest
// edge has disposed of, whatever the disposition.
func edgeCount(st stats) uint64 {
	return st.EventsIn + st.AdmissionRejected + st.ImposedDrops + st.Unrouted
}

// drained reports whether every accepted pair has left its shard queue.
func drained(st registry.Snapshot) bool {
	for _, q := range st.Queries {
		for _, sh := range q.Runtime.Shards {
			if sh.QueueDepth > 0 {
				return false
			}
		}
		r := q.Runtime
		if r.EventsIn != r.EventsShed+r.EventsProcessed+r.ShardQuarantined {
			return false
		}
	}
	return true
}

// goroutines reads the live goroutine count off the pprof index.
func (s *server) goroutines(ctx context.Context) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/debug/pprof/goroutine?debug=1", nil)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("read goroutine profile: %w", err)
	}
	// "goroutine profile: total 42"
	i := strings.LastIndexByte(strings.TrimSpace(line), ' ')
	return strconv.Atoi(strings.TrimSpace(line[i+1:]))
}

// procUsage is what /proc says about the server process.
type procUsage struct {
	cpu     time.Duration // on-CPU time, all threads
	rssPeak float64       // VmHWM, MB
}

func (s *server) usage() (procUsage, error) {
	var u procUsage
	proc := "/proc/" + strconv.Itoa(s.cmd.Process.Pid)
	// Per-thread on-CPU nanoseconds. utime+stime in /proc/<pid>/stat
	// would do, but tick at 10 ms: a two-second slice of a cheap workload
	// is then a few dozen ticks, and equal counts repeat across runs.
	tasks, err := filepath.Glob(proc + "/task/*/schedstat")
	if err != nil || len(tasks) == 0 {
		return u, fmt.Errorf("no %s/task/*/schedstat (%v)", proc, err)
	}
	for _, t := range tasks {
		raw, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		ns, err := parseSchedstat(raw)
		if err != nil {
			return u, fmt.Errorf("%s: %w", t, err)
		}
		u.cpu += ns
	}
	status, err := os.ReadFile(proc + "/status")
	if err != nil {
		return u, err
	}
	u.rssPeak, err = parseVmHWM(status)
	return u, err
}

// parseSchedstat reads the first field of a schedstat file: nanoseconds
// the task has spent on a CPU.
func parseSchedstat(raw []byte) (time.Duration, error) {
	f := strings.Fields(string(raw))
	if len(f) < 1 {
		return 0, fmt.Errorf("empty schedstat")
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	return time.Duration(ns), err
}

// parseVmHWM reads the peak resident set size, in MB, from a
// /proc/<pid>/status body.
func parseVmHWM(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// stop drains the server with SIGTERM and returns the final snapshot it
// prints on the way out.
func (s *server) stop() (registry.Snapshot, error) {
	var final registry.Snapshot
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return final, err
	}
	select {
	case <-s.exited:
		if s.exitErr != nil {
			return final, fmt.Errorf("cepserved exit after SIGTERM: %w\n%s", s.exitErr, s.logTail())
		}
	case <-time.After(60 * time.Second):
		s.kill()
		return final, fmt.Errorf("cepserved did not exit within 60s of SIGTERM\n%s", s.logTail())
	}
	s.cleanup()
	if err := json.Unmarshal(s.matches.trailer(), &final); err != nil {
		return final, fmt.Errorf("decode final snapshot: %w", err)
	}
	return final, nil
}

// kill ends the server immediately; safe to call more than once and
// after stop.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // fails only when the process is already gone
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
	}
	s.cleanup()
}

func (s *server) cleanup() {
	if s.stateDir != "" {
		_ = os.RemoveAll(s.stateDir) // best effort; the parent temp dir is removed at exit too
	}
}
