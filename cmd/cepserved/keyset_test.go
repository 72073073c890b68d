package main

import (
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"cepshed/internal/registry"
)

// TestStatsAndMetricsKeySet pins the operator-facing surface: the set of
// JSON key paths /stats answers with and the set of series names
// /metrics exposes, on the TestMultiQuerySmoke setup with durability on.
// A refactor that is meant to change no behaviour must leave both golden
// files under testdata/ untouched; a change that adds or retires a key
// edits them in the same commit, which is what makes it visible.
func TestStatsAndMetricsKeySet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	bin := filepath.Join(t.TempDir(), "cepserved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	p := startServer(t, bin, []string{
		"-listen", "127.0.0.1:0",
		"-shards", "2",
		"-bound", "0",
		"-strategy", "None",
		"-arbiter-interval", "50ms",
		"-arbiter-capacity", "0.25",
		"-state-dir", t.TempDir(),
	})
	defer func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}()
	base := "http://" + p.addr

	httpDo(t, "PUT", base+"/tenants", `{"name":"acme","priority":4}`, http.StatusNoContent)
	httpDo(t, "PUT", base+"/tenants", `{"name":"noisy","priority":1}`, http.StatusNoContent)
	addQuery(t, base, registry.QuerySpec{
		Tenant: "acme", Name: "pairs",
		Query: "PATTERN SEQ(X x, Y y) WHERE x.ID = y.ID WITHIN 100ms",
	})
	addQuery(t, base, registry.QuerySpec{
		Tenant: "noisy", Name: "kleene",
		Query: "PATTERN SEQ(N a, N+ b[], M c) WHERE a.ID = b[i].ID AND a.ID = c.ID WITHIN 60ms",
	})
	postStream(t, base, strings.NewReader(
		`{"type":"X","time":1000000000,"attrs":{"ID":1}}`+"\n"+
			`{"type":"Y","time":1001000000,"attrs":{"ID":1}}`+"\n"+
			`{"type":"N","time":1002000000,"attrs":{"ID":2}}`+"\n"+
			`{"type":"N","time":1003000000,"attrs":{"ID":2}}`+"\n"+
			`{"type":"M","time":1004000000,"attrs":{"ID":2}}`+"\n"))
	// Value-dependent (omitempty) keys are settled once both queries have
	// matched — every counter the five lines can move has moved — and the
	// arbiter has ticked with both tenants on its books.
	if !pollUntil(30*time.Second, func() bool {
		snap := scrapeStats(t, base)
		return findQuery(t, snap, "acme", "pairs").Runtime.Matches >= 1 &&
			findQuery(t, snap, "noisy", "kleene").Runtime.Matches >= 1 &&
			len(snap.Arbiter.Tenants) == 2
	}) {
		t.Fatal("the two queries never matched the five ingested lines, or the arbiter never saw both tenants")
	}

	var stats any
	if err := json.Unmarshal(httpDo(t, "GET", base+"/stats", "", http.StatusOK), &stats); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	keys := map[string]bool{}
	flattenKeys("", stats, keys)
	compareGolden(t, "testdata/stats_keys.golden", keys)

	series := map[string]bool{}
	for _, line := range strings.Split(string(httpDo(t, "GET", base+"/metrics", "", http.StatusOK)), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		series[line[:strings.IndexAny(line+" ", "{ ")]] = true
	}
	compareGolden(t, "testdata/metrics_series.golden", series)
}

// flattenKeys collects the dotted key path of every JSON object member
// under v; array elements share their parent's path.
func flattenKeys(prefix string, v any, out map[string]bool) {
	switch n := v.(type) {
	case map[string]any:
		for k, child := range n {
			path := k
			if prefix != "" {
				path = prefix + "." + k
			}
			out[path] = true
			flattenKeys(path, child, out)
		}
	case []any:
		for _, child := range n {
			flattenKeys(prefix, child, out)
		}
	}
}

func compareGolden(t *testing.T, path string, got map[string]bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, k := range strings.Fields(string(data)) {
		want[k] = true
		if !got[k] {
			t.Errorf("%s: %s is gone", path, k)
		}
	}
	var added []string
	for k := range got {
		if !want[k] {
			added = append(added, k)
		}
	}
	sort.Strings(added)
	for _, k := range added {
		t.Errorf("%s: %s is new", path, k)
	}
}
