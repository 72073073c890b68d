package main

import (
	"fmt"
	goruntime "runtime"
	"slices"
	"time"
)

// totals sums the per-query runtime counters of a /stats reading that
// the registry does not already aggregate at its top level.
type totals struct {
	busyNs, admissionNs                   int64
	steals, createdPMs, droppedPMs        uint64
	plansBuilt, plansApplied, plansStale  uint64
	planBuildMaxNs, stallMaxNs, snapMaxNs int64
	latP50, latP99                        time.Duration // worst query
}

func sumQueries(st stats) totals {
	var t totals
	for _, q := range st.Queries {
		r := q.Runtime
		t.busyNs += r.BusyNs
		t.admissionNs += r.AdmissionNs
		t.steals += r.Steals
		t.createdPMs += r.CreatedPMs
		t.droppedPMs += r.DroppedPMs
		t.plansBuilt += r.PlansBuilt
		t.plansApplied += r.PlansApplied
		t.plansStale += r.PlansStale
		t.planBuildMaxNs = max(t.planBuildMaxNs, r.PlanBuildNsMax)
		t.stallMaxNs = max(t.stallMaxNs, r.ShedStallMaxNs)
		t.snapMaxNs = max(t.snapMaxNs, r.SnapPauseMaxNs)
		t.latP50 = max(t.latP50, r.P50)
		t.latP99 = max(t.latP99, r.P99)
	}
	return t
}

// ratio is x/y, or 0 when there is nothing to divide by.
func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// perLayer reports the per-layer metrics of a traced run: counters the
// server already exports, read as deltas over the scored window of the
// run's own drive, and span times from the in-process pass.
func perLayer(res *result, w *workload, in *input, d *drive, lc *layerCosts) {
	first, last := d.windows[0], d.windows[len(d.windows)-1]
	a, b := first.stats, last.stats
	ta, tb := sumQueries(a), sumQueries(b)
	sent := float64(in.marks[len(in.marks)-1] - in.marks[0])
	wall := (last.at - first.at).Seconds()
	evIn := float64(b.EventsIn - a.EventsIn)

	sends := sortedCopy(d.pace.sendTimes)
	res.set("edge.write_block_ms", ms(percentile(sends, 99)), "ms")
	post := 0.0
	if w.edge == edgeHTTP {
		post = ms(percentile(sends, 50))
	}
	res.set("edge.http_post_p50_ms", post, "ms")
	// The whole scored window's tail, stalls and backlog episodes included:
	// what a subscriber sees, and too unsteady on a shared host to carry a
	// regression bound (see README.md, Steadiness).
	var lat []time.Duration
	for _, win := range d.latencies {
		lat = append(lat, win...)
	}
	slices.Sort(lat)
	p99 := 0.0
	if supports(len(lat), 99) {
		p99 = ms(percentile(lat, 99))
	}
	res.set("edge.detect_p99_ms", p99, "ms")
	res.set("edge.bad_lines", float64(b.BadLines-a.BadLines), "count")
	res.set("edge.unrouted", float64(b.Unrouted-a.Unrouted), "count")

	res.set("ndjson.decode_ns_per_event", lc.decodeNs, "ns")
	res.set("ndjson.allocs_per_event", lc.decodeAllocs, "count")
	res.set("ndjson.bytes_per_event", lc.lineBytes, "B")

	res.set("registry.offer_ns_per_event", lc.offerNs, "ns")
	res.set("registry.pairs_per_event", lc.pairsPerEvent, "count")
	res.set("registry.arbiter_shed", float64(b.ImposedDrops-a.ImposedDrops), "count")
	res.set("registry.arbiter_util", b.Arbiter.Utilization, "cores")

	res.set("runtime.queue_wait_p50_us", us(tb.latP50), "us")
	res.set("runtime.queue_wait_p99_us", us(tb.latP99), "us")
	res.set("runtime.busy_frac", ratio(float64(tb.busyNs-ta.busyNs)/1e9, wall*float64(goruntime.NumCPU())), "ratio")
	res.set("runtime.steals", float64(tb.steals-ta.steals), "count")
	res.set("runtime.goroutines", float64(d.goroutines), "count")
	res.set("runtime.rss_peak_mb", last.usage.rssPeak, "MB")
	res.set("runtime.degradation_max", float64(d.peakLevel), "level")
	res.set("runtime.admission_rejected", float64(b.AdmissionRejected-a.AdmissionRejected), "count")

	res.set("checkpoint.append_ns_per_event", lc.appendNs, "ns")
	res.set("checkpoint.flush_ns_per_event", lc.flushNs, "ns")
	res.set("checkpoint.wal_bytes_per_event", lc.walBytes, "B")
	res.set("checkpoint.snapshot_us", lc.snapshotUs, "us")
	res.set("checkpoint.snapshots", float64(b.Snapshots-a.Snapshots), "count")
	res.set("checkpoint.snap_pause_max_us", float64(tb.snapMaxNs)/1e3, "us")

	admitNs := ratio(float64(tb.admissionNs-ta.admissionNs), evIn)
	res.set("core.train_s", lc.trainS, "s")
	res.set("core.admit_ns_per_event", admitNs, "ns")
	res.set("core.input_shed_ratio", ratio(float64(b.EventsShed-a.EventsShed), evIn), "ratio")
	res.set("core.pm_shed_ratio", ratio(float64(tb.droppedPMs-ta.droppedPMs), float64(tb.createdPMs-ta.createdPMs)), "ratio")
	res.set("core.plans_built", float64(tb.plansBuilt-ta.plansBuilt), "count")
	res.set("core.plans_applied", float64(tb.plansApplied-ta.plansApplied), "count")
	res.set("core.plans_stale", float64(tb.plansStale-ta.plansStale), "count")
	res.set("core.plan_build_max_us", float64(tb.planBuildMaxNs)/1e3, "us")
	res.set("core.shed_stall_max_us", float64(tb.stallMaxNs)/1e3, "us")

	res.set("engine.compile_us", lc.compileUs, "us")
	res.set("engine.process_ns_per_event", lc.processNs, "ns")
	res.set("engine.allocs_per_event", lc.processAllocs, "count")
	res.set("engine.pms_created_per_event", lc.pmsCreated, "count")
	res.set("engine.live_pms_peak", float64(lc.livePeak), "count")
	res.set("engine.matches_per_event", lc.matches, "count")

	matchesPerEvent := float64(b.Matches-a.Matches) / sent
	res.set("emit.encode_ns_per_match", lc.encodeNs, "ns")
	res.set("emit.matches_per_s", ratio(float64(b.Matches-a.Matches), wall), "1/s")

	// The budget: what one sent event costs in traced layer time, against
	// what it cost the server in CPU. Worker-side layers run once per
	// (event, query) pair; the engine only for pairs the strategies let
	// through (shed partial matches make it cheaper still, which this
	// cannot see — on the overload workload the residual reads low).
	cpuNs := float64(last.usage.cpu-first.usage.cpu) / sent
	pairs := lc.pairsPerEvent
	processed := ratio(float64(b.EventsProcessed-a.EventsProcessed), evIn)
	engineNs := pairs * processed * lc.processNs
	traced := lc.decodeNs + lc.offerNs + pairs*(lc.appendNs+lc.flushNs+admitNs) + engineNs + matchesPerEvent*lc.encodeNs
	res.set("engine.cpu_share", ratio(engineNs, cpuNs), "ratio")
	res.set("trace.cpu_us_per_event", cpuNs/1e3, "us")
	res.set("trace.residual_frac", 1-ratio(traced, cpuNs), "ratio")
	res.set("trace.overhead_frac", ratio(float64(lc.spans)*float64(emptySpanCost()), float64(lc.tracedTotal)), "ratio")

	res.notes = append(res.notes,
		fmt.Sprintf("traced pass: first %d events in-process, %d spans; budget per sent event: decode %.0f + offer %.0f + wal %.0f + admit %.0f + engine %.0f + emit %.0f = %.0f ns of %.0f ns server CPU",
			lc.events, lc.spans, lc.decodeNs, lc.offerNs, pairs*(lc.appendNs+lc.flushNs), pairs*admitNs, engineNs, matchesPerEvent*lc.encodeNs, traced, cpuNs))
}
