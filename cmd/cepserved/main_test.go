package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/fault"
	"cepshed/internal/query"
	"cepshed/internal/registry"
	"cepshed/internal/runtime"
)

// newTestServer builds a registry-backed server with one registered
// query (Q1, so event types A/B/C route) and the given runtime knobs
// applied to every query via TuneRuntime.
func newTestServer(t *testing.T, cfg runtime.Config) *server {
	t.Helper()
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	reg, err := registry.Open(registry.Config{
		Shards:       cfg.Shards,
		QueueLen:     cfg.QueueLen,
		DefaultTheta: cfg.Bound,
		Arbiter:      registry.ArbiterConfig{Disabled: true},
		OnMatches: func(_ registry.QuerySpec, shard int, ms []engine.Match) {
			if cfg.OnMatches != nil {
				cfg.OnMatches(shard, ms)
			}
		},
		TuneRuntime: func(_ registry.QuerySpec, rc *runtime.Config) {
			rc.Restart = cfg.Restart
			rc.BeforeProcess = cfg.BeforeProcess
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	in, err := reg.Add(registry.QuerySpec{
		Tenant: defaultTenant,
		Name:   defaultQueryName,
		Query:  query.Q1("8ms").Raw,
	})
	if err != nil {
		t.Fatal(err)
	}
	in.WaitReady()
	s := &server{reg: reg, started: time.Now(), tcpIdle: 30 * time.Millisecond, conns: map[net.Conn]struct{}{}}
	s.ready.Store(true) // tests exercise the post-recovery state unless they flip it back
	return s
}

func TestHealthzOKThenDraining(t *testing.T) {
	s := newTestServer(t, runtime.Config{})
	rec := httptest.NewRecorder()
	s.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthy server: code = %d, want 200", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"status":"ok"`) {
		t.Errorf("body = %s", rec.Body.String())
	}

	s.closing.Store(true)
	rec = httptest.NewRecorder()
	s.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining server: code = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"status":"draining"`) {
		t.Errorf("body = %s", rec.Body.String())
	}
}

func TestHealthzFailedWhenAllShardsDead(t *testing.T) {
	s := newTestServer(t, runtime.Config{
		Shards: 1,
		Restart: runtime.RestartPolicy{
			BackoffBase: 100 * time.Microsecond,
			BackoffMax:  time.Millisecond,
			MaxRestarts: 1,
			Window:      time.Minute,
		},
		BeforeProcess: fault.PanicIf(func(int, *event.Event) bool { return true }, "dead on arrival"),
	})
	deadline := time.Now().Add(5 * time.Second)
	for s.reg.Snapshot().FailedShards == 0 {
		if time.Now().After(deadline) {
			t.Fatal("shard never failed")
		}
		s.reg.Offer(event.New("A", event.Time(time.Since(s.started)), map[string]event.Value{"ID": event.Int(1)}))
	}
	rec := httptest.NewRecorder()
	s.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("all shards failed: code = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"status":"failed"`) {
		t.Errorf("body = %s", rec.Body.String())
	}
}

func TestIngestQuarantinesBadLines(t *testing.T) {
	s := newTestServer(t, runtime.Config{})
	in := `{"type":"A","attrs":{"ID":1}}
garbage line
{"type":"B","attrs":{"ID":2}}
`
	accepted, rejected, overloaded, unrouted := s.ingest(strings.NewReader(in))
	if accepted != 2 || rejected != 1 || overloaded != 0 || unrouted != 0 {
		t.Errorf("ingest = (%d, %d, %d, %d), want (2, 1, 0, 0)", accepted, rejected, overloaded, unrouted)
	}
	if got := s.badLine.Load(); got != 1 {
		t.Errorf("badLine = %d, want 1", got)
	}
	dls := s.reg.DeadLetters()
	if len(dls) != 1 {
		t.Fatalf("dead letters = %d, want 1", len(dls))
	}
	if dls[0].Payload != "garbage line" {
		t.Errorf("dead letter payload = %q", dls[0].Payload)
	}
	if !strings.Contains(dls[0].Reason, "line 2") {
		t.Errorf("dead letter reason %q lacks the line number", dls[0].Reason)
	}
	if dls[0].Tenant != "" || dls[0].Query != "" {
		t.Errorf("undecodable line attributed to %s/%s, want the registry edge", dls[0].Tenant, dls[0].Query)
	}
}

// An event whose type no registered query subscribes to is neither
// accepted nor an error — it is counted as unrouted.
func TestIngestCountsUnroutedEvents(t *testing.T) {
	s := newTestServer(t, runtime.Config{})
	accepted, rejected, overloaded, unrouted := s.ingest(strings.NewReader(
		`{"type":"Z","attrs":{"ID":1}}` + "\n" + `{"type":"A","attrs":{"ID":1}}` + "\n"))
	if accepted != 1 || rejected != 0 || overloaded != 0 || unrouted != 1 {
		t.Errorf("ingest = (%d, %d, %d, %d), want (1, 0, 0, 1)", accepted, rejected, overloaded, unrouted)
	}
}

// A producer that connects, sends one event, and then goes silent must
// be disconnected by the per-read idle deadline instead of holding its
// goroutine forever.
func TestTCPIdleDeadlineClosesStalledConn(t *testing.T) {
	s := newTestServer(t, runtime.Config{})
	client, srvConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		s.serveConn(srvConn)
		close(done)
	}()
	if _, err := client.Write([]byte(`{"type":"A","attrs":{"ID":1}}` + "\n")); err != nil {
		t.Fatal(err)
	}
	// ...and now stall. The server must give up after tcpIdle (30ms).
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stalled connection still being served after 5s")
	}
	if got := s.stalled.Load(); got != 1 {
		t.Errorf("stalled = %d, want 1", got)
	}
	// The server closed its side; the client sees it on the next write.
	client.SetWriteDeadline(time.Now().Add(time.Second))
	var err error
	for i := 0; i < 100; i++ {
		if _, err = client.Write([]byte("x\n")); err != nil {
			break
		}
	}
	if err == nil {
		t.Error("client writes still succeeding after the server hung up")
	}
}

// TestWritePrometheusExposesRobustnessSeries reads the values a live
// ingest moves; the series set and formatting are pinned by
// TestMetricsBodyGolden.
func TestWritePrometheusExposesRobustnessSeries(t *testing.T) {
	s := newTestServer(t, runtime.Config{})
	s.ingest(strings.NewReader(`{"type":"A","attrs":{"ID":1}}` + "\nbad\n"))
	rec := httptest.NewRecorder()
	s.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := rec.Body.String()
	for _, series := range []string{
		"\ncepshed_quarantined_total 1\n",
		"\ncepshed_queries 1\n",
		"\n" + `cepshed_excess{tenant="default",query="main"} 0` + "\n",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("/metrics output missing %q", series)
		}
	}
}

func TestIngestEndpointRejectsAtLoadRejection(t *testing.T) {
	// A tiny queue, a tight bound, and a slow consumer push the ladder to
	// LevelReject; the HTTP edge must answer 429 with Retry-After.
	s := newTestServer(t, runtime.Config{
		Shards:        1,
		QueueLen:      4,
		Bound:         time.Millisecond,
		BeforeProcess: fault.Delay(5*time.Millisecond, nil),
	})
	mux := s.mux()
	line := `{"type":"A","attrs":{"ID":1}}` + "\n"
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("ladder never reached load rejection")
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest",
			strings.NewReader(strings.Repeat(line, 50))))
		if rec.Code == http.StatusTooManyRequests {
			if rec.Header().Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			break
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("unexpected status %d", rec.Code)
		}
		io.Copy(io.Discard, rec.Body)
	}
}

// The admin API drives the full query lifecycle over HTTP: register
// (with validation), list, pause/resume, and remove — no restart.
func TestAdminQueryLifecycle(t *testing.T) {
	s := newTestServer(t, runtime.Config{})
	mux := s.mux()
	do := func(method, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		var r io.Reader
		if body != "" {
			r = strings.NewReader(body)
		}
		mux.ServeHTTP(rec, httptest.NewRequest(method, path, r))
		return rec
	}

	// A bad query must be a clean 400 with the compile error, not a
	// half-registered instance.
	if rec := do("POST", "/queries", `{"tenant":"acme","name":"broken","query":"NOT A QUERY"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad query: code = %d, want 400 (body %s)", rec.Code, rec.Body.String())
	}

	spec := `{"tenant":"acme","name":"xy","query":"PATTERN SEQ(X x, Y y) WHERE x.ID = y.ID WITHIN 8ms"}`
	if rec := do("POST", "/queries?wait=1", spec); rec.Code != http.StatusCreated {
		t.Fatalf("add: code = %d, want 201 (body %s)", rec.Code, rec.Body.String())
	}
	// Duplicate registration is a conflict, not a validation error.
	if rec := do("POST", "/queries", spec); rec.Code != http.StatusConflict {
		t.Fatalf("dup add: code = %d, want 409", rec.Code)
	}

	rec := do("GET", "/queries", "")
	var listed []registry.InstanceStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &listed); err != nil {
		t.Fatalf("list: %v (body %s)", err, rec.Body.String())
	}
	if len(listed) != 2 {
		t.Fatalf("listed %d queries, want 2", len(listed))
	}

	// X events route only once the new query serves; pausing stops them.
	if a, _, _, u := s.ingest(strings.NewReader(`{"type":"X","attrs":{"ID":1}}` + "\n")); a != 1 || u != 0 {
		t.Fatalf("X before pause: accepted=%d unrouted=%d, want 1/0", a, u)
	}
	if rec := do("POST", "/queries/acme/xy/pause", ""); rec.Code != http.StatusNoContent {
		t.Fatalf("pause: code = %d, want 204", rec.Code)
	}
	if a, _, _, u := s.ingest(strings.NewReader(`{"type":"X","attrs":{"ID":2}}` + "\n")); a != 0 || u != 1 {
		t.Fatalf("X while paused: accepted=%d unrouted=%d, want 0/1", a, u)
	}
	if rec := do("POST", "/queries/acme/xy/resume", ""); rec.Code != http.StatusNoContent {
		t.Fatalf("resume: code = %d, want 204", rec.Code)
	}
	if a, _, _, u := s.ingest(strings.NewReader(`{"type":"X","attrs":{"ID":3}}` + "\n")); a != 1 || u != 0 {
		t.Fatalf("X after resume: accepted=%d unrouted=%d, want 1/0", a, u)
	}

	if rec := do("PUT", "/tenants", `{"name":"acme","priority":2,"shed_budget":0.5}`); rec.Code != http.StatusNoContent {
		t.Fatalf("put tenant: code = %d, want 204 (body %s)", rec.Code, rec.Body.String())
	}
	rec = do("GET", "/tenants", "")
	var tenants []registry.Tenant
	if err := json.Unmarshal(rec.Body.Bytes(), &tenants); err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 1 || tenants[0].Priority != 2 {
		t.Fatalf("tenants = %+v, want acme with priority 2", tenants)
	}

	if rec := do("DELETE", "/queries/acme/xy", ""); rec.Code != http.StatusNoContent {
		t.Fatalf("remove: code = %d, want 204", rec.Code)
	}
	if rec := do("DELETE", "/queries/acme/xy", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("double remove: code = %d, want 404", rec.Code)
	}
	if a, _, _, u := s.ingest(strings.NewReader(`{"type":"X","attrs":{"ID":4}}` + "\n")); a != 0 || u != 1 {
		t.Fatalf("X after remove: accepted=%d unrouted=%d, want 0/1", a, u)
	}
}

// A -print-matches line is what it was when the prefix came from
// encoding/json and the body from a per-match EncodeMatch call, for
// names json escapes every way it can (the body's own differential is
// runtime.TestAppendMatchEqualsReference).
func TestAppendMatchLinesEqualsMarshal(t *testing.T) {
	a, b := event.New("A", 1, nil), event.New("B<", 2, nil)
	a.Seq, b.Seq = 41, 42
	ms := []engine.Match{{Events: []*event.Event{a, b}, Detected: 2}, {Events: []*event.Event{b}, Detected: 3}}
	for _, name := range []string{"plain", "", `q"uo\te`, "<&>", "a\x01\t\n", "\xff\xc3", " é日本😀"} {
		spec := registry.QuerySpec{Tenant: name, Name: "q-" + name}
		var want []byte
		for _, m := range ms {
			tn, _ := json.Marshal(spec.Tenant)
			qn, _ := json.Marshal(spec.Name)
			want = append(want, `{"tenant":`+string(tn)+`,"query":`+string(qn)+`,"match":`...)
			want = append(want, runtime.EncodeMatch(5, m)...)
			want = append(want, "}\n"...)
		}
		if got := appendMatchLines(nil, spec, 5, ms); !bytes.Equal(got, want) {
			t.Errorf("appendMatchLines(%q)\n got %q\nwant %q", name, got, want)
		}
	}
}
