package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cepshed/internal/registry"
)

// lockedBuffer collects the server's stdout while the test polls it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) lines() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return bytes.Split(bytes.TrimSpace(l.b.Bytes()), []byte("\n"))
}

// TestEmitSmoke starts the real binary on ephemeral HTTP and TCP ports,
// registers a tenant whose name Go's %q would render as non-JSON, sends
// one matching pair to the TCP address the server logged, and requires
// every -print-matches line to parse as JSON and name the tenant.
func TestEmitSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	bin := filepath.Join(t.TempDir(), "cepserved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stdout lockedBuffer
	p := startServerStdout(t, bin, []string{
		"-listen", "127.0.0.1:0",
		"-tcp", "127.0.0.1:0",
		"-shards", "1",
		"-bound", "0",
		"-strategy", "None",
		"-print-matches",
	}, &stdout)
	defer func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}()
	base := "http://" + p.addr

	const tenant = "a\x01\"b"
	body, _ := json.Marshal(map[string]any{"name": tenant, "priority": 1})
	httpDo(t, "PUT", base+"/tenants", string(body), http.StatusNoContent)
	spec, _ := json.Marshal(registry.QuerySpec{
		Tenant: tenant, Name: "pairs\t\xff",
		Query: "PATTERN SEQ(X x, Y y) WHERE x.ID = y.ID WITHIN 100ms",
	})
	// The registration response names the tenant too and must be JSON.
	var created struct{ ID, Fingerprint string }
	resp := httpDo(t, "POST", base+"/queries?wait=1", string(spec), http.StatusCreated)
	if err := json.Unmarshal(resp, &created); err != nil {
		t.Fatalf("POST /queries response is not JSON: %v\n%q", err, resp)
	}
	if !strings.HasPrefix(created.ID, tenant+"/pairs\t") || len(created.Fingerprint) != 16 {
		t.Errorf("POST /queries response %q: id %q fingerprint %q", resp, created.ID, created.Fingerprint)
	}

	var tcpAddr string
	select {
	case tcpAddr = <-p.tcpAddr:
	case <-time.After(10 * time.Second):
		t.Fatal("server never logged its TCP address")
	}
	if _, port, err := net.SplitHostPort(tcpAddr); err != nil || port == "0" {
		t.Fatalf("logged TCP address %q is not a bound port (err %v)", tcpAddr, err)
	}
	conn, err := net.Dial("tcp", tcpAddr)
	if err != nil {
		t.Fatalf("dial logged TCP address: %v", err)
	}
	_, err = conn.Write([]byte(`{"type":"X","time":1000000,"attrs":{"ID":7}}` + "\n" +
		`{"type":"Y","time":2000000,"attrs":{"ID":7}}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()

	if !pollUntil(10*time.Second, func() bool { return len(stdout.lines()[0]) > 0 }) {
		t.Fatal("no match line on stdout")
	}
	// SIGTERM drains and appends the final snapshot, which is JSON too.
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM exit: %v", err)
	}
	lines := stdout.lines()
	var line struct {
		Tenant string          `json:"tenant"`
		Match  json.RawMessage `json:"match"`
	}
	if err := json.Unmarshal(lines[0], &line); err != nil {
		t.Fatalf("match line is not JSON: %v\n%q", err, lines[0])
	}
	if line.Tenant != tenant || len(line.Match) == 0 {
		t.Errorf("match line %q: tenant %q, want %q with a match", lines[0], line.Tenant, tenant)
	}
	// The rest is further match lines and the final snapshot, which
	// spans lines: all of stdout must be a sequence of JSON values.
	dec := json.NewDecoder(bytes.NewReader(bytes.Join(lines, []byte("\n"))))
	for dec.More() {
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("stdout is not a sequence of JSON values: %v", err)
		}
	}
}
