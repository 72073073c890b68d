package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cepshed/internal/registry"
)

// TestMultiQuerySmoke is the end-to-end multi-tenant drill behind
// `make multiquery-smoke`: start the real binary with no queries,
// register two tenants with two queries over the admin API, replay one
// mixed stream through /ingest, drive the low-priority tenant's Kleene
// query into overload, and require the arbiter to tighten only that
// tenant's bound — its RI strategy then sheds, while the other tenant
// keeps x = 0, full recall and sane latency — then drain cleanly on
// SIGTERM.
func TestMultiQuerySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	bin := filepath.Join(t.TempDir(), "cepserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// Small arbiter capacity makes "overload" reachable at test scale —
	// the Kleene query burns most of a core, far past 0.1 — while leaving
	// the protected tenant's entitlement (0.09 cores at 9:1 priority)
	// comfortably above anything its trivial pairs query can burn, so a
	// phase-2 ingest burst can never tighten its bound. Default bound 0
	// and strategy None: the protected tenant has no ladder and sheds
	// nothing; only the noisy tenant gets a θ and a strategy.
	p := startServer(t, bin, []string{
		"-listen", "127.0.0.1:0",
		"-shards", "2",
		"-bound", "0",
		"-strategy", "None",
		"-arbiter-interval", "50ms",
		"-arbiter-capacity", "0.1",
	})
	defer func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}()
	base := "http://" + p.addr

	// ---- Tenants: acme is the protected high-priority tenant, noisy the
	// low-priority one that will be driven into overload.
	httpDo(t, "PUT", base+"/tenants", `{"name":"acme","priority":9}`, http.StatusNoContent)
	// noisy's θ sits above its Kleene query's smoothed latency, so the
	// query violates it only once the arbiter sets x and RI runs against
	// θ·(1−x).
	httpDo(t, "PUT", base+"/tenants", fmt.Sprintf(`{"name":"noisy","priority":1,"theta_ns":%d}`, noisyTheta), http.StatusNoContent)

	// ---- Queries: registered dynamically, no restart. acme/pairs is a
	// cheap two-step correlation; noisy/kleene accumulates runs
	// combinatorially over a handful of hot keys.
	addQuery(t, base, registry.QuerySpec{
		Tenant: "acme", Name: "pairs",
		Query: "PATTERN SEQ(X x, Y y) WHERE x.ID = y.ID WITHIN 100ms",
	})
	addQuery(t, base, registry.QuerySpec{
		Tenant: "noisy", Name: "kleene", Strategy: "RI",
		Query: "PATTERN SEQ(N a, N+ b[], M c) WHERE a.ID = b[i].ID AND a.ID = c.ID WITHIN 60ms",
	})

	// ---- Phase 1: overload the noisy tenant over one shared stream
	// until the arbiter tightens its bound and RI sheds. 4 events per key
	// per round with a 60ms window and 20ms round step keeps ~12 same-key
	// events in window: ~4k Kleene runs per key — hot, but bounded.
	var logical uint64 = 1_000_000_000
	deadline := time.Now().Add(45 * time.Second)
	var noisy registry.InstanceStatus
	var noisyX float64
	for noisyX == 0 || noisy.Runtime.EventsShed == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the noisy tenant never shed under the arbiter: x seen %.2f, %+v", noisyX, noisy.Runtime)
		}
		var b bytes.Buffer
		for rep := 0; rep < 4; rep++ {
			for id := 0; id < 8; id++ {
				fmt.Fprintf(&b, `{"type":"N","time":%d,"attrs":{"ID":%d}}`+"\n",
					logical+uint64(rep)*1_000_000, id)
			}
		}
		postStream(t, base, &b)
		logical += 20_000_000
		noisy = findQuery(t, scrapeStats(t, base), "noisy", "kleene")
		noisyX = max(noisyX, noisy.Excess)
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("noisy: x seen %.2f, events_in %d, shed %d, p50 %v, p99 %v",
		noisyX, noisy.Runtime.EventsIn, noisy.Runtime.EventsShed, noisy.Runtime.P50, noisy.Runtime.P99)

	// ---- Phase 2: the protected tenant's traffic rides the same stream
	// while the noisy tenant is being shed. Distinct IDs per pair make
	// the expected match count exact.
	const pairs = 200
	preAcme := findQuery(t, scrapeStats(t, base), "acme", "pairs").Runtime
	var b bytes.Buffer
	for k := 0; k < pairs; k++ {
		id := 10_000 + k
		fmt.Fprintf(&b, `{"type":"X","time":%d,"attrs":{"ID":%d}}`+"\n", logical, id)
		fmt.Fprintf(&b, `{"type":"Y","time":%d,"attrs":{"ID":%d}}`+"\n", logical+1_000_000, id)
		logical += 2_000_000
	}
	postStream(t, base, &b)

	var acme registry.InstanceStatus
	ok := pollUntil(30*time.Second, func() bool {
		acme = findQuery(t, scrapeStats(t, base), "acme", "pairs")
		return acme.Runtime.Matches >= preAcme.Matches+pairs
	})
	if !ok {
		t.Fatalf("acme recall broken: matches %d, want %d (events_in %d, shed %d, x %.2f)",
			acme.Runtime.Matches, preAcme.Matches+pairs,
			acme.Runtime.EventsIn, acme.Runtime.EventsShed, acme.Excess)
	}

	// ---- Isolation: the overloaded tenant degraded itself, not acme.
	snap := scrapeStats(t, base)
	acme = findQuery(t, snap, "acme", "pairs")
	noisy = findQuery(t, snap, "noisy", "kleene")
	if acme.Runtime.EventsShed != 0 || acme.Excess != 0 {
		t.Errorf("protected tenant was shed: events_shed=%d x=%.2f",
			acme.Runtime.EventsShed, acme.Excess)
	}
	if got := acme.Runtime.EventsIn - preAcme.EventsIn; got != 2*pairs {
		t.Errorf("protected tenant events_in grew %d, want %d", got, 2*pairs)
	}
	// Generous wall-clock bound: the point is "not starved by the
	// neighbor", not an absolute latency SLO on shared CI hardware.
	if acme.Runtime.P99 > 250*time.Millisecond {
		t.Errorf("protected tenant p99 = %v, want < 250ms while neighbor overloads", acme.Runtime.P99)
	}
	if noisy.Runtime.EventsShed == 0 {
		t.Error("noisy tenant shed nothing after overload")
	}
	var tl *registry.TenantLoad
	for i := range snap.Arbiter.Tenants {
		switch snap.Arbiter.Tenants[i].Tenant {
		case "noisy":
			tl = &snap.Arbiter.Tenants[i]
		case "acme":
			if x := snap.Arbiter.Tenants[i].Excess; x != 0 {
				t.Errorf("arbiter tightened the protected tenant: x = %.2f", x)
			}
		}
	}
	if tl == nil {
		t.Error("arbiter snapshot missing the noisy tenant")
	}

	// ---- Clean drain: SIGTERM exits 0.
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit within 30s of SIGTERM")
	}
}

// noisyTheta is the noisy tenant's latency bound θ.
const noisyTheta = 50 * time.Millisecond

func httpDo(t *testing.T, method, url, body string, want int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, want, out)
	}
	return out
}

func addQuery(t *testing.T, base string, spec registry.QuerySpec) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	httpDo(t, "POST", base+"/queries?wait=1", string(body), http.StatusCreated)
}

func postStream(t *testing.T, base string, body io.Reader) {
	t.Helper()
	resp, err := http.Post(base+"/ingest", "application/x-ndjson", body)
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest: status %d", resp.StatusCode)
	}
}

func scrapeStats(t *testing.T, base string) registry.Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var snap registry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	return snap
}

func findQuery(t *testing.T, snap registry.Snapshot, tenant, name string) registry.InstanceStatus {
	t.Helper()
	for _, q := range snap.Queries {
		if q.Spec.Tenant == tenant && q.Spec.Name == name {
			return q
		}
	}
	t.Fatalf("query %s/%s not in /stats snapshot", tenant, name)
	return registry.InstanceStatus{}
}

func pollUntil(timeout time.Duration, ok func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if ok() {
			return true
		}
		time.Sleep(50 * time.Millisecond)
	}
	return false
}
