package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"

	"cepshed/internal/checkpoint"
	"cepshed/internal/citibike"
	"cepshed/internal/core"
	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/registry"
	"cepshed/internal/runtime"
)

// traceBatch is how many events one span covers: the two clock reads of
// a span are then amortised over the batch instead of dominating a call
// that takes a few hundred nanoseconds.
const traceBatch = 256

// span is one timed call, or batch of calls, into a layer's public
// functions. Spans stay in memory and are written out when the pass ends.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the harness epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for the root
	Batch  int    `json:"batch"`  // spans of one event batch share it; -1 outside batches
}

type tracer struct{ spans []span }

func (t *tracer) begin(name string, parent, batch int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(now()), Parent: parent, Batch: batch})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = int64(now())
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// total sums the durations of the spans with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// emptySpanCost times the tracer itself: what one begin/end pair adds.
func emptySpanCost() time.Duration {
	const n = 100000
	t := &tracer{spans: make([]span, 0, n)}
	start := now()
	for i := 0; i < n; i++ {
		t.end(t.begin("empty", -1, -1))
	}
	return (now() - start) / n
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// trainingStream reproduces the stream cepserved trains its cost model
// on for -dataset d -events n at its default -seed 1.
func trainingStream(dataset string, warmEvents int) event.Stream {
	const serverSeed = 1
	if dataset == "citibike" {
		return citibike.Generate(citibike.Config{Trips: warmEvents / 2, Seed: serverSeed + 1000})
	}
	return gen.DS1(gen.DS1Config{Events: warmEvents / 2, Seed: serverSeed + 1000, InterArrival: 15 * event.Microsecond})
}

// layerCosts is what the traced in-process pass measured, per event of
// the prefix unless named otherwise.
type layerCosts struct {
	events int

	decodeNs, decodeAllocs, lineBytes float64

	offerNs, pairsPerEvent float64

	appendNs, flushNs, walBytes float64 // per (event, query) pair
	snapshotUs                  float64 // one Save of the engine state

	compileUs, trainS float64

	processNs, processAllocs float64 // per (event, query) pair, single goroutine
	pmsCreated, matches      float64 // per pair
	livePeak                 int

	encodeNs float64 // per match

	spans       int
	tracedTotal time.Duration
}

// tracedPass replays the first w.tracePrefix events of the run's stream
// through each layer's public functions in this process, one layer at a
// time, a span around every call or batch of calls. It is the outside-in
// substitute for spans inside the program: no layer is instrumented, so
// what the layers cost each other (channel hand-off, scheduling, GC under
// the full pipeline) is not seen here and lands in trace.residual_frac.
func tracedPass(w *workload, in *input, seed int64, tmp string, tr *tracer) (*layerCosts, error) {
	n := min(w.tracePrefix, len(in.events))
	lc := &layerCosts{events: n}
	root := tr.begin("traced-pass", -1, -1)
	defer tr.end(root)
	perEvent := func(d time.Duration) float64 { return float64(d) / float64(n) }
	var ms0, ms1 goruntime.MemStats

	// ndjson: LineDecoder.Next over the exact bytes the server received.
	dec := runtime.NewLineDecoder(bytes.NewReader(in.line(0, n)), 0)
	decoded := make(event.Stream, 0, n)
	goruntime.ReadMemStats(&ms0)
	for lo := 0; lo < n; lo += traceBatch {
		hi := min(lo+traceBatch, n)
		sp := tr.begin("ndjson.decode", root, lo/traceBatch)
		for i := lo; i < hi; i++ {
			e, _, err := dec.Next()
			if err != nil {
				return nil, fmt.Errorf("traced decode of event %d: %w", i, err)
			}
			decoded = append(decoded, e)
		}
		tr.end(sp)
	}
	goruntime.ReadMemStats(&ms1)
	lc.decodeNs = perEvent(tr.total("ndjson.decode"))
	lc.decodeAllocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	lc.lineBytes = float64(len(in.line(0, n))) / float64(n)
	for i, e := range decoded {
		e.Seq = uint64(i) // the server's stamp
	}

	// registry: fan-out and hand-off into every query's runtime. Each
	// batch is offered to idle queues and drained before the next, so
	// the span times the hand-off and not backpressure.
	specs := w.queries
	if len(specs) == 0 {
		specs = []registry.QuerySpec{{Tenant: "default", Name: "main", Query: w.scored(seed)[0].machine.Query.Raw}}
	}
	rcfg := registry.Config{Shards: 2, QueueLen: 1024, Arbiter: registry.ArbiterConfig{Disabled: true}}
	if w.durable {
		dir, err := os.MkdirTemp(tmp, "trace-state-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		rcfg.StateDir = dir
		rcfg.Durability = &serverDurability
	}
	reg, err := registry.Open(rcfg)
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		inst, err := reg.Add(spec)
		if err != nil {
			reg.Close()
			return nil, err
		}
		inst.WaitReady()
	}
	deliveries := 0
	for lo := 0; lo < n; lo += traceBatch {
		hi := min(lo+traceBatch, n)
		batch := append(make([]*event.Event, 0, traceBatch), decoded[lo:hi]...) // OfferBatch filters in place
		sp := tr.begin("registry.offer", root, lo/traceBatch)
		res := reg.OfferBatch(batch)
		tr.end(sp)
		deliveries += res.Deliveries
		for !drained(reg.Snapshot()) {
			goruntime.Gosched()
		}
	}
	sp := tr.begin("registry.close", root, -1)
	reg.Close()
	tr.end(sp)
	lc.offerNs = perEvent(tr.total("registry.offer"))
	lc.pairsPerEvent = float64(deliveries) / float64(n)

	// core: cost-model training on the server's own training stream.
	scored := w.scored(seed)
	sp = tr.begin("core.train", root, -1)
	_, err = core.Train(scored[0].machine, trainingStream(w.dataset, w.warmEvents), core.TrainConfig{Slices: 4, Seed: 1})
	lc.trainS = tr.end(sp).Seconds()
	if err != nil {
		return nil, fmt.Errorf("traced core.Train: %w", err)
	}

	// engine, emit, checkpoint: one single-goroutine pass per scored
	// query — the single-threaded baseline of the same job.
	var pairs, created, matched int
	var mallocs uint64
	for qi, sq := range scored {
		sp = tr.begin("engine.compile", root, -1)
		q, err := query.Parse(sq.machine.Query.Raw)
		if err != nil {
			return nil, err
		}
		m, err := nfa.Compile(q)
		lc.compileUs += us(tr.end(sp)) / float64(len(scored))
		if err != nil {
			return nil, err
		}
		en := engine.New(m, engine.DefaultCosts())
		var store *checkpoint.ShardStore
		cfg := serverDurability
		if w.durable {
			if cfg.Dir, err = os.MkdirTemp(tmp, "trace-wal-"); err != nil {
				return nil, err
			}
			defer os.RemoveAll(cfg.Dir)
			if store, err = checkpoint.NewShardStore(cfg, qi, 1); err != nil {
				return nil, err
			}
		}
		types := map[string]bool{}
		for _, c := range q.Pattern {
			types[c.Type] = true
		}
		var found []engine.Match
		for lo := 0; lo < n; lo += traceBatch {
			hi := min(lo+traceBatch, n)
			b := lo / traceBatch
			if store != nil {
				sp = tr.begin("checkpoint.append", root, b)
				for _, e := range decoded[lo:hi] {
					if types[e.Type] {
						err = errors.Join(err, store.AppendEvent(e))
					}
				}
				tr.end(sp)
				sp = tr.begin("checkpoint.flush", root, b)
				err = errors.Join(err, store.Flush())
				tr.end(sp)
				if err != nil {
					return nil, fmt.Errorf("traced WAL: %w", err)
				}
			}
			found = found[:0]
			goruntime.ReadMemStats(&ms0)
			sp = tr.begin("engine.process", root, b)
			for _, e := range decoded[lo:hi] {
				if !types[e.Type] {
					continue
				}
				pairs++
				res := en.Process(e)
				found = append(found, res.Matches...)
			}
			tr.end(sp)
			goruntime.ReadMemStats(&ms1)
			mallocs += ms1.Mallocs - ms0.Mallocs
			lc.livePeak = max(lc.livePeak, en.LiveCount())
			matched += len(found)
			sp = tr.begin("emit.encode", root, b)
			for _, mt := range found {
				encodeSink = runtime.EncodeMatch(0, mt)
			}
			tr.end(sp)
		}
		created += int(en.Stats().CreatedPMs)
		if store != nil {
			lc.walBytes += dirSize(cfg.Dir)
			sp = tr.begin("checkpoint.save", root, -1)
			_, err = store.Save(&checkpoint.ShardState{Shard: qi, HasSeq: true, LastSeq: uint64(n - 1), Engine: en.Snapshot()})
			lc.snapshotUs += us(tr.end(sp)) / float64(len(scored))
			if err != nil {
				return nil, fmt.Errorf("traced snapshot: %w", err)
			}
			if err := store.Close(); err != nil {
				return nil, err
			}
		}
	}
	perPair := func(d time.Duration) float64 { return float64(d) / float64(pairs) }
	lc.processNs = perPair(tr.total("engine.process"))
	lc.processAllocs = float64(mallocs) / float64(pairs)
	lc.pmsCreated = float64(created) / float64(pairs)
	lc.matches = float64(matched) / float64(pairs)
	lc.appendNs = perPair(tr.total("checkpoint.append"))
	lc.flushNs = perPair(tr.total("checkpoint.flush"))
	lc.walBytes /= float64(pairs)
	if matched > 0 {
		lc.encodeNs = float64(tr.total("emit.encode")) / float64(matched)
	}
	lc.spans = len(tr.spans)
	for _, s := range tr.spans[1:] {
		lc.tracedTotal += time.Duration(s.End - s.Start)
	}
	return lc, nil
}

// encodeSink keeps the compiler from discarding the encode call.
var encodeSink []byte

// serverDurability mirrors cepserved's durability flag defaults.
var serverDurability = checkpoint.Config{
	EveryEvents:   32768,
	FlushEvery:    1024,
	FlushBytes:    48 << 10,
	FlushInterval: 2 * time.Millisecond,
}

// dirSize sums the sizes of the files directly in dir.
func dirSize(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			total += fi.Size()
		}
	}
	return float64(total)
}
