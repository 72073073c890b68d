// Command cepshed-bench is the repository's one benchmark: it drives the
// real cepserved binary in open loop with seeded streams and reports
// recall at the latency bound, detection latency and CPU cost, plus an
// outside-in per-layer budget from a traced in-process pass. README.md
// describes the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of them, both passes)")
		seed    = flag.Int64("seed", 1, "stream seed; the server sees only the generated events")
		seconds = flag.Int("seconds", 20, "scored seconds per run, after the ramp-in")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		repeat  = flag.Int("repeat", 1, "runs per workload on seeds seed, seed+1, …; above 1 prints each metric's spread and fails when one exceeds its bound")
	)
	flag.Parse()
	// The pacing thread wakes from nanosleep thousands of times a second
	// and needs a P each time; with only as many Ps as cores it would
	// wait behind the match reader for up to a scheduler quantum (10 ms).
	runtime.GOMAXPROCS(8)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *name, *seed, *seconds, *trace == 1, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "cepshed-bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, seed int64, seconds int, traced bool, repeat int) error {
	if seconds < int(sliceLen.Seconds()) {
		return fmt.Errorf("-seconds %d is shorter than one scored slice (%v)", seconds, sliceLen)
	}
	ev, cleanup, err := newEnv(ctx)
	if err != nil {
		return err
	}
	defer cleanup()

	if name == "" {
		// Developer mode: every workload, both passes.
		for _, w := range workloads {
			for _, tracedPass := range []bool{false, true} {
				res, err := measure(ctx, ev, w, seed, seconds, tracedPass)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				res.print(w.name, tracedPass)
				if len(res.problems) > 0 {
					return fmt.Errorf("%s: incorrect output", w.name)
				}
			}
		}
		return nil
	}

	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if repeat > 1 {
		return repeated(ctx, ev, w, seed, seconds, traced, repeat)
	}
	res, err := measure(ctx, ev, w, seed, seconds, traced)
	if err != nil {
		return err
	}
	res.print(w.name, traced)
	// The driver's contract: one JSON object, last line of stdout.
	out, err := json.Marshal(map[string]any{
		"correct":   len(res.problems) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// measure runs one workload once: the untraced end-to-end pass, or the
// traced pass (a drive for the server's own counters, with set-up timed
// once instead of setupReps times, then the in-process replay). A run
// whose generator fell behind is void and repeated, once: if the host is
// no better then, the second run is reported with a note, because one
// disturbed run in ten moves a median less than a missing run does.
func measure(ctx context.Context, ev *env, w *workload, seed int64, seconds int, traced bool) (*result, error) {
	begin := time.Now()
	in, refs := prepare(w, seed, seconds)
	prepared := time.Since(begin)
	for attempt := 1; ; attempt++ {
		res, err := measureOnce(ctx, ev, w, in, refs, seed, traced)
		if err != nil {
			return nil, err
		}
		if res.void && attempt < 2 {
			fmt.Fprintf(os.Stderr, "cepshed-bench: run void: generator lateness p99 exceeds %v - repeating\n", maxLateness)
			continue
		}
		if res.void {
			res.notes = append(res.notes, fmt.Sprintf("VOID twice: generator lateness p99 exceeds %v; latencies include the generator's own delay", maxLateness))
		}
		res.notes = append(res.notes, fmt.Sprintf("harness: %.1f s in all, %.1f s of it generating the stream and its reference",
			time.Since(begin).Seconds(), prepared.Seconds()))
		return res, nil
	}
}

func measureOnce(ctx context.Context, ev *env, w *workload, in *input, refs references, seed int64, traced bool) (*result, error) {
	reps := setupReps
	if traced {
		reps = 1
	}
	d, err := runServer(ctx, ev, w, in, refs, reps)
	if err != nil {
		return nil, err
	}
	res := &result{metrics: map[string]metric{}, problems: d.problems}
	if err := endToEnd(res, w, in, d); err != nil {
		return nil, err
	}
	if !traced {
		return res, nil
	}
	// Per-layer metrics replace the end-to-end ones in a traced run; the
	// end-to-end numbers of a run that also sampled and traced are not
	// the benchmark's.
	res.metrics = map[string]metric{}
	tr := &tracer{}
	lc, err := tracedPass(w, in, seed, ev.tmp, tr)
	if err != nil {
		return nil, err
	}
	perLayer(res, w, in, d, lc)
	path := filepath.Join(ev.outDir, "trace-"+w.name+".json")
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.notes = append(res.notes, "spans written to "+path)
	return res, nil
}

func (r *result) print(workload string, traced bool) {
	pass := "end-to-end"
	if traced {
		pass = "per-layer (traced run)"
	}
	fmt.Printf("== %s: %s\n", workload, pass)
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	for _, p := range r.problems {
		fmt.Println("INCORRECT:", p)
	}
	for _, k := range sortKeys(r.metrics) {
		fmt.Printf("%-32s %16.4f %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
	}
}

// spec is the part of BENCHMARK.json the harness reads: each end-to-end
// metric's regression bound.
type spec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeated runs a workload k times on consecutive seeds and judges each
// end-to-end metric's run-to-run spread the way the benchmark driver
// does: interquartile range over median, against the metric's bound.
func repeated(ctx context.Context, ev *env, w *workload, seed int64, seconds int, traced bool, k int) error {
	raw, err := os.ReadFile(filepath.Join(ev.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m.Bound
	}

	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		res, err := measure(ctx, ev, w, seed+int64(i), seconds, traced)
		if err != nil {
			return err
		}
		res.print(w.name, traced)
		if len(res.problems) > 0 {
			return errors.New("incorrect output")
		}
		for name, m := range res.metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	fmt.Printf("== %s: %d runs, seeds %d..%d\n", w.name, k, seed, seed+int64(k)-1)
	fmt.Printf("%-32s %12s %12s %12s %-6s %8s %8s %6s\n", "metric", "q1", "median", "q3", "unit", "iqr/med", "rng/med", "bound")
	var wide []string
	for _, name := range sortKeys(values) {
		v := values[name]
		q1, q3 := quartiles(v)
		med := median(v)
		s := sortedCopy(v)
		iqr, rng := ratio(q3-q1, med), ratio(s[len(s)-1]-s[0], med)
		bound, judged := bounds[name]
		mark := ""
		// setup_s is judged by the driver on its median only.
		if judged && name != "setup_s" && iqr > bound {
			mark = "  <-- spread exceeds bound"
			wide = append(wide, name)
		}
		fmt.Printf("%-32s %12.4f %12.4f %12.4f %-6s %8.4f %8.4f %6.2f%s\n", name, q1, med, q3, units[name], iqr, rng, bound, mark)
	}
	if len(wide) > 0 {
		return fmt.Errorf("run-to-run spread exceeds the bound on %v", wide)
	}
	return nil
}
