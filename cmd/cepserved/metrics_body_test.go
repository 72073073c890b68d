package main

import (
	"bytes"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"cepshed/internal/cluster"
	"cepshed/internal/metrics"
	"cepshed/internal/registry"
	"cepshed/internal/runtime"
)

// metricsFixture is one fixed registry snapshot, intern-table reading and
// cluster status that puts at least one sample in every /metrics family:
// 2 tenants x 2 queries x 2 shards, 2 peers, bools both ways, a gauge past
// 1e6 and a counter past 2^53. Every numeric field gets its own value, so
// a series reading the wrong field shows in the body.
func metricsFixture() (registry.Snapshot, runtime.InternStats, cluster.Status) {
	n := uint64(0)
	next := func() uint64 { n++; return n*1000 + n }
	// 1234567007 ns prints differently through float64(ns)/1e9 and
	// time.Duration.Seconds(), so the body pins which one each series uses.
	const oddNs = 1234567007
	var snap registry.Snapshot
	var created, dropped uint64
	for _, tenant := range []string{"acme", "noisy"} {
		for _, name := range []string{"pairs", "kleene"} {
			var rs runtime.Snapshot
			for sh := 0; sh < 2; sh++ {
				ss := runtime.ShardSnapshot{
					Shard:           sh,
					QueueDepth:      int(next()),
					EventsIn:        next(),
					EventsShed:      next(),
					EventsProcessed: next(),
					// The value a retired counter took here is skipped,
					// so every later one stays what the golden pins.
					Matches:         func() uint64 { next(); return next() }(),
					LivePMs:         int64(next()),
					CreatedPMs:      next(),
					DroppedPMs:      next(),
					Restarts:        next(),
					Quarantined:     next(),
					Failed:          sh == 1,
					AdmissionNs:     int64(next()),
					AdaptFolds:      next(),
					PlansBuilt:      next(),
					PlansApplied:    next(),
					PlansStale:      next(),
					PlanBuildNsLast: oddNs + int64(next()),
					PlanBuildNsMax:  int64(next()) * 1337,
					ShedStallMaxNs:  int64(next()) * 31,
					ClassBuckets:    int64(next()),
					ClassLivePMs:    int64(next()),
					ClassDeadPMs:    int64(next()),
					IndexVisited:    next(),
					IndexPruned:     next(),
					Snapshots:       next(),
					SnapshotBytes:   int64(next()),
					WALReplayed:     next(),
					ColdStarts:      next(),
					WALErrors:       next(),
					SmoothedLatency: time.Duration(oddNs + next()),
				}
				if tenant == "acme" && name == "pairs" && sh == 0 {
					ss.EventsIn = 1<<53 + 1
					ss.SnapshotBytes = 1234567
					ss.PlanBuildNsLast = oddNs
					ss.SmoothedLatency = oddNs
				}
				rs.Shards = append(rs.Shards, ss)
				rs.EventsIn += ss.EventsIn
				rs.EventsShed += ss.EventsShed
				rs.CreatedPMs += ss.CreatedPMs
				rs.DroppedPMs += ss.DroppedPMs
				rs.WALErrors += ss.WALErrors
			}
			rs.DegradationLevel = int(n % 4)
			rs.P50 = oddNs
			rs.P95 = time.Duration(next()) * time.Microsecond
			rs.P99 = time.Duration(next()) * time.Millisecond
			snap.Queries = append(snap.Queries, registry.InstanceStatus{
				Spec:       registry.QuerySpec{Tenant: tenant, Name: name},
				Excess:     float64(len(snap.Queries)+1) / 8,
				FloorSkips: next(),
				Runtime:    rs,
			})
			snap.EventsIn += rs.EventsIn
			snap.EventsShed += rs.EventsShed
			snap.WALErrors += rs.WALErrors
			created += rs.CreatedPMs
			dropped += rs.DroppedPMs
			if rs.DegradationLevel > snap.MaxDegradation {
				snap.MaxDegradation = rs.DegradationLevel
			}
		}
	}
	snap.Arbiter = registry.ArbiterSnapshot{
		Enabled:     true,
		Capacity:    0.75,
		Utilization: 1.0 / 3,
		Overloaded:  false,
		Tenants: []registry.TenantLoad{
			{Tenant: "acme", Utilization: 0.125, Share: 2.0 / 3, Excess: 0},
			{Tenant: "noisy", Utilization: 0.5, Share: 1.0 / 3, Excess: 0.625},
		},
	}
	snap.AdmissionRejected = next()
	snap.Quarantined = next()
	snap.Unrouted = next()
	snap.FailedShards = 4
	snap.Recovering = true
	snap.QueryCount = len(snap.Queries)
	snap.InputShedRatio = float64(snap.EventsShed) / float64(snap.EventsIn)
	snap.PMShedRatio = float64(dropped) / float64(created)

	intern := runtime.InternStats{Inserts: next(), Rejects: next(), HighWater: 4096}

	st := cluster.Status{
		Self:     "n1",
		Degraded: true,
		Peers: []cluster.PeerStatus{
			{Name: "n2", Up: true},
			{Name: "n3", Up: false},
		},
		ForwardedOut: next(),
		ForwardedIn:  next(),
		ForwardDrop:  next(),
		Retries:      next(),
		Redirects:    next(),
		DupBatches:   next(),
		// The value the retired router_shed counter took is skipped, so
		// every later one stays what the golden pins.
		HandoffsOut: func() uint64 { next(); return next() }(),
		HandoffsIn:  next(),
		Takeovers:   next(),
		InFlight:    int64(next()),
		PeerForwards: []cluster.PeerForwardStatus{
			{Name: "n2", Dropped: next()},
			{Name: "n3", Dropped: next()},
		},
	}
	return snap, intern, st
}

// promFamilies splits an exposition body into its families, keyed by
// the name on each "# HELP" line; each value is the family's lines in
// order (header and samples). The format fixes the lines within a family
// but not the order of families.
func promFamilies(t *testing.T, body string) map[string]string {
	t.Helper()
	fams := map[string]string{}
	name := ""
	for _, line := range strings.SplitAfter(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			name = strings.Fields(line)[2]
			if _, dup := fams[name]; dup {
				t.Errorf("family %s has two headers", name)
			}
		} else if name == "" {
			t.Fatalf("line before any header: %q", line)
		}
		fams[name] += line
	}
	return fams
}

// TestMetricsBodyGolden pins the whole /metrics body for metricsFixture
// under node="n1": every family's HELP, TYPE and sample lines, byte for
// byte and in order.
func TestMetricsBodyGolden(t *testing.T) {
	snap, intern, st := metricsFixture()
	var buf bytes.Buffer
	for _, root := range []any{snap, intern, st} {
		metrics.WriteProm(&buf, root, "node", "n1")
	}
	const path = "testdata/metrics_body.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, exp := promFamilies(t, buf.String()), promFamilies(t, string(want))
	var names []string
	for name := range exp {
		names = append(names, name)
	}
	for name := range got {
		if _, ok := exp[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != exp[name] {
			t.Errorf("%s: family %s differs\n got:\n%s want:\n%s", path, name, got[name], exp[name])
		}
	}
}
