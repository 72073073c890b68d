package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

type walkShard struct {
	ID      int           `prom:"shard,label"`
	Hits    uint64        `prom:"t_hits_total,counter,Hits."`
	Depth   int64         `prom:"t_depth,gauge,Depth."`
	Lat     time.Duration `prom:"t_lat_seconds,gauge,Latency."`
	BuildNs int64         `prom:"t_build_seconds,gauge,Build."`
	Up      bool          `prom:"t_up,gauge,Up."`
	Errs    uint64        `prom:"t_errors_total,counter,Errors."`
	Note    string
	Skipped uint64 `json:"skipped"`
}

type walkSpec struct {
	Tenant string `prom:"tenant,label"`
	Name   string `prom:"query,label"`
}

type walkQuery struct {
	Spec   walkSpec
	Shards []walkShard
	P50    time.Duration `prom:"t_latency_seconds{quantile=0.5},summary,Quantiles."`
	P99    time.Duration `prom:"t_latency_seconds{quantile=0.99}"`
}

type walkRoot struct {
	// Errs feeds the family its shards declare; it comes first in field
	// order but prints after the labeled samples.
	Errs    uint64 `prom:"t_errors_total"`
	Queries []walkQuery
	Events  uint64  `prom:"t_latency_seconds_count"`
	Ratio   float64 `prom:"t_ratio,gauge,Ratio."`
	Big     uint64  `prom:"t_big,gauge,Big gauge."`
}

func TestWritePromWalk(t *testing.T) {
	// 1234567007 ns prints differently through Duration.Seconds() and
	// float64(ns)/1e9.
	root := walkRoot{
		Errs: 3,
		Queries: []walkQuery{{
			Spec: walkSpec{Tenant: "a", Name: "q"},
			Shards: []walkShard{
				{ID: 0, Hits: 1<<53 + 1, Depth: 1234567, Lat: 1234567007, BuildNs: 1234567007, Up: true, Errs: 2, Note: "x", Skipped: 9},
				{ID: 1, Hits: 5, Depth: 7, Errs: 1},
			},
			P50: 2 * time.Millisecond,
			P99: 250 * time.Millisecond,
		}},
		Events: 10,
		Ratio:  0.25,
		Big:    2000000,
	}
	var buf bytes.Buffer
	WriteProm(&buf, root, "node", "n1")
	const s0, s1 = `{node="n1",tenant="a",query="q",shard="0"}`, `{node="n1",tenant="a",query="q",shard="1"}`
	want := strings.Join([]string{
		"# HELP t_errors_total Errors.",
		"# TYPE t_errors_total counter",
		"t_errors_total" + s0 + " 2",
		"t_errors_total" + s1 + " 1",
		`t_errors_total{node="n1"} 3`,
		"# HELP t_hits_total Hits.",
		"# TYPE t_hits_total counter",
		"t_hits_total" + s0 + " 9007199254740993",
		"t_hits_total" + s1 + " 5",
		"# HELP t_depth Depth.",
		"# TYPE t_depth gauge",
		"t_depth" + s0 + " 1.234567e+06",
		"t_depth" + s1 + " 7",
		"# HELP t_lat_seconds Latency.",
		"# TYPE t_lat_seconds gauge",
		"t_lat_seconds" + s0 + " 1.2345670069999999",
		"t_lat_seconds" + s1 + " 0",
		"# HELP t_build_seconds Build.",
		"# TYPE t_build_seconds gauge",
		"t_build_seconds" + s0 + " 1.234567007",
		"t_build_seconds" + s1 + " 0",
		"# HELP t_up Up.",
		"# TYPE t_up gauge",
		"t_up" + s0 + " 1",
		"t_up" + s1 + " 0",
		"# HELP t_latency_seconds Quantiles.",
		"# TYPE t_latency_seconds summary",
		`t_latency_seconds{node="n1",tenant="a",query="q",quantile="0.5"} 0.002`,
		`t_latency_seconds{node="n1",tenant="a",query="q",quantile="0.99"} 0.25`,
		`t_latency_seconds_count{node="n1"} 10`,
		"# HELP t_ratio Ratio.",
		"# TYPE t_ratio gauge",
		`t_ratio{node="n1"} 0.25`,
		"# HELP t_big Big gauge.",
		"# TYPE t_big gauge",
		`t_big{node="n1"} 2e+06`,
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

// An empty slice still declares its families: the headers do not depend
// on the data.
func TestWritePromEmptySliceKeepsHeaders(t *testing.T) {
	var buf bytes.Buffer
	WriteProm(&buf, walkRoot{})
	got := buf.String()
	for _, line := range []string{
		"# TYPE t_hits_total counter\n# HELP t_depth Depth.\n",
		"# TYPE t_up gauge\n# HELP t_latency_seconds Quantiles.\n",
		"\nt_errors_total 0\n",
		"\nt_latency_seconds_count 0\n",
	} {
		if !strings.Contains(got, line) {
			t.Errorf("body lacks %q:\n%s", line, got)
		}
	}
}

// Label values follow text format 0.0.4: only backslash, double quote
// and newline are escaped, every other byte of valid UTF-8 passes as is,
// and invalid UTF-8 becomes U+FFFD. Go's %q would write \x01, \t and
// \xff, which a strict parser rejects and a lenient one stores as
// different label values.
func TestWritePromEscapesLabelValues(t *testing.T) {
	type row struct {
		Tenant string `prom:"tenant,label"`
		N      uint64 `prom:"t_total,counter,N."`
	}
	type root struct{ Rows []row }
	for _, tc := range []struct{ name, want string }{
		{"a\x01b", "a\x01b"},
		{"tab\there", "tab\there"},
		{"bad\xffutf8", "bad\uFFFDutf8"},
		{"naïve", "naïve"},
		{"q\"b\\s\nn", `q\"b\\s\nn`},
	} {
		var buf bytes.Buffer
		WriteProm(&buf, root{[]row{{tc.name, 1}}})
		want := "# HELP t_total N.\n# TYPE t_total counter\nt_total{tenant=\"" + tc.want + "\"} 1\n"
		if got := buf.String(); got != want {
			t.Errorf("tenant %q:\n got %q\nwant %q", tc.name, got, want)
		}
	}
}
