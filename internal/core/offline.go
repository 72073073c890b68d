package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/mlkit"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/vclock"
)

// TrainConfig configures offline cost-model estimation (§V-B).
type TrainConfig struct {
	// Slices is the number of time slices the window is split into
	// (§V-A); Fig 10 sweeps 1-6. Default 4.
	Slices int
	// MaxClusters caps the cluster count chosen by the gap statistic per
	// state. Default 10 (the paper's classifier depth bound).
	MaxClusters int
	// MinClusters floors the cluster count. Contribution and consumption
	// are strongly correlated with stream load, so dispersion-based
	// criteria tend to pick very few clusters and miss the small
	// zero-contribution corner that precise shedding depends on; the
	// paper's estimation grid (Fig 13) shows recall saturating around 8
	// clusters per state, which is the default floor.
	MinClusters int
	// FixedClusters, when non-nil, pins the cluster count per state
	// (Fig 13's grid sweep), bypassing the gap statistic.
	FixedClusters map[int]int
	// ResourceCosts enables the explicit per-match resource cost Ω(p)
	// (length plus per-event predicate load, §IV-A); when false every
	// partial match weighs 1, the ablation of Fig 11.
	ResourceCosts bool
	// Seed drives clustering determinism.
	Seed int64
	// GapRefSets is the number of reference datasets for the gap
	// statistic. Default 4.
	GapRefSets int
	// DeferredNegation trains on an engine running witness-based
	// negation semantics, so negation witnesses receive their own
	// (zero-contribution) classes.
	DeferredNegation bool
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Slices <= 0 {
		c.Slices = 4
	}
	if c.MaxClusters <= 0 {
		c.MaxClusters = 10
	}
	if c.MinClusters <= 0 {
		c.MinClusters = 8
	}
	if c.MinClusters > c.MaxClusters {
		c.MinClusters = c.MaxClusters
	}
	if c.GapRefSets <= 0 {
		c.GapRefSets = 4
	}
	return c
}

// Model is the trained cost model: per automaton state a classifier over
// partial-match features and per (state, class, slice) the estimated
// remaining contribution and consumption.
type Model struct {
	machine *nfa.Machine
	spec    *featureSpec
	cfg     TrainConfig

	window query.Window
	// sliceLen is the virtual-time length of one slice (time windows).
	sliceLen event.Time
	// sliceEvents is the event-count length of one slice (count windows).
	sliceEvents int

	states []*stateModel
}

type stateModel struct {
	tree *mlkit.Tree
	k    int
	// contrib/consume estimates per [class][slice]: the 90th percentile
	// of the contribution/consumption a class member still generates from
	// that slice onward (updated online by the Adapter).
	contrib [][]float64
	consume [][]float64
	// freq is the fraction of training partial matches per class.
	freq []float64
	// regions are the classifier's feature-space regions per class, used
	// to project class predicates onto raw events for input shedding.
	regions [][]mlkit.Region
}

// Clone returns a model that shares everything training fixed (automaton,
// feature spec, classifiers, regions, class frequencies) and owns a copy
// of the per-cell estimates — the only part online adaptation mutates —
// so one training run can serve many independently adapting strategies.
func (model *Model) Clone() *Model {
	c := *model
	c.states = make([]*stateModel, len(model.states))
	for s, sm := range model.states {
		cs := *sm
		cs.contrib = cloneCells(sm.contrib)
		cs.consume = cloneCells(sm.consume)
		c.states[s] = &cs
	}
	return &c
}

// cloneCells copies a [class][slice] table into one backing array.
func cloneCells(cells [][]float64) [][]float64 {
	n := 0
	for _, row := range cells {
		n += len(row)
	}
	flat := make([]float64, 0, n)
	out := make([][]float64, len(cells))
	for i, row := range cells {
		flat = append(flat, row...)
		out[i] = flat[len(flat)-len(row) : len(flat) : len(flat)]
	}
	return out
}

// pmRecord is one training observation: the per-slice contribution and
// consumption a partial match generated over its lifetime.
type pmRecord struct {
	state    int
	features []float64
	contrib  []float64 // per slice of the ancestor's age at credit time
	consume  []float64
}

func (r *pmRecord) total() (c, w float64) {
	for i := range r.contrib {
		c += r.contrib[i]
		w += r.consume[i]
	}
	return c, w
}

// futureFrom sums the per-slice series from slice s onward: the remaining
// value of a class member that has aged into slice s.
func futureFrom(series []float64, s int) float64 {
	var sum float64
	for i := s; i < len(series); i++ {
		sum += series[i]
	}
	return sum
}

// Train runs the query over historic data, records every partial match
// with its realized per-slice contribution and consumption, clusters them
// per state, and fits the per-state classifiers (§V-B offline estimation).
func Train(m *nfa.Machine, training event.Stream, cfg TrainConfig) (*Model, error) {
	cfg = cfg.withDefaults()
	model := &Model{
		machine: m,
		spec:    newFeatureSpec(m, training),
		cfg:     cfg,
		window:  m.Query.Window,
	}
	if model.window.Duration > 0 {
		model.sliceLen = model.window.Duration / event.Time(cfg.Slices)
		if model.sliceLen <= 0 {
			model.sliceLen = 1
		}
	} else {
		model.sliceEvents = model.window.Count / cfg.Slices
		if model.sliceEvents <= 0 {
			model.sliceEvents = 1
		}
	}

	// Collect per-PM records by replaying the training stream. Credits
	// are attributed per slice of the ancestor's age at the moment the
	// derived match appears, so estimates reflect REMAINING value.
	type accum struct {
		rec    *pmRecord
		pm     *engine.PartialMatch
		parent *accum
	}
	byID := map[uint64]*accum{}
	var records []*pmRecord

	en := engine.New(m, engine.DefaultCosts())
	en.DeferredNegation = cfg.DeferredNegation
	var now event.Time
	var nowSeq uint64
	en.OnCreate = func(pm *engine.PartialMatch) {
		rec := &pmRecord{
			state:    pm.State(),
			features: model.spec.pmFeatures(pm),
			contrib:  make([]float64, cfg.Slices),
			consume:  make([]float64, cfg.Slices),
		}
		a := &accum{rec: rec, pm: pm}
		if p := pm.Parent(); p != nil {
			a.parent = byID[p.ID()]
		}
		byID[pm.ID()] = a
		records = append(records, rec)
		// Attribute this match's resource cost to itself and every
		// ancestor (Γ−, Eq. 4), at the ancestor's current slice.
		omega := model.omega(pm)
		for cur := a; cur != nil; cur = cur.parent {
			sl := model.sliceOfPM(cur.pm, now, nowSeq)
			cur.rec.consume[sl] += omega
		}
	}
	for _, e := range training {
		now, nowSeq = e.Time, e.Seq
		res := en.Process(e)
		for _, match := range res.Matches {
			src := match.Source
			if src == nil {
				continue
			}
			// Credit the complete match to the source run and every
			// ancestor (Γ+, Eq. 3), at the ancestor's current slice.
			for cur := byID[src.ID()]; cur != nil; cur = cur.parent {
				sl := model.sliceOfPM(cur.pm, now, nowSeq)
				cur.rec.contrib[sl]++
			}
		}
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("core: training stream produced no partial matches")
	}

	// Cluster per state and fit classifiers.
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	model.states = make([]*stateModel, len(m.States))
	for s := range m.States {
		var recs []*pmRecord
		for _, r := range records {
			if r.state == s {
				recs = append(recs, r)
			}
		}
		model.states[s] = model.fitState(s, recs, rng)
	}
	return model, nil
}

// MustTrain trains and panics on error (tests and fixed experiments).
func MustTrain(m *nfa.Machine, training event.Stream, cfg TrainConfig) *Model {
	model, err := Train(m, training, cfg)
	if err != nil {
		panic(err)
	}
	return model
}

// featureGroup aggregates the training records sharing one feature
// vector. Individual partial matches have extremely noisy (Γ+, Γ−)
// realizations (they depend on which correlated events happened to share
// the window); clustering the per-group MEANS recovers the structural
// relation between attribute values and cost, which is what the class
// predicates must capture.
type featureGroup struct {
	features []float64
	recs     []*pmRecord
}

func (model *Model) fitState(s int, recs []*pmRecord, rng *rand.Rand) *stateModel {
	cfg := model.cfg
	sm := &stateModel{k: 1}
	if len(recs) == 0 {
		sm.contrib = [][]float64{constSlices(0, cfg.Slices)}
		sm.consume = [][]float64{constSlices(1, cfg.Slices)}
		sm.freq = []float64{1}
		return sm
	}
	// Group records by feature vector, keyed by its floats' bits.
	index := map[string]*featureGroup{}
	var groups []*featureGroup
	var key []byte
	for _, r := range recs {
		key = featureKey(key[:0], r.features)
		g := index[string(key)]
		if g == nil {
			g = &featureGroup{features: r.features}
			index[string(key)] = g
			groups = append(groups, g)
		}
		g.recs = append(g.recs, r)
	}

	// Cluster the normalized per-group mean (Γ+, Γ−).
	points := make([][2]float64, len(groups))
	maxC, maxW := 0.0, 0.0
	means := make([][2]float64, len(groups))
	for i, g := range groups {
		var c, w float64
		for _, r := range g.recs {
			rc, rw := r.total()
			c += rc
			w += rw
		}
		c /= float64(len(g.recs))
		w /= float64(len(g.recs))
		means[i] = [2]float64{c, w}
		if c > maxC {
			maxC = c
		}
		if w > maxW {
			maxW = w
		}
	}
	if maxC == 0 {
		maxC = 1
	}
	if maxW == 0 {
		maxW = 1
	}
	for i := range groups {
		points[i] = [2]float64{means[i][0] / maxC, means[i][1] / maxW}
	}
	k := 0
	if cfg.FixedClusters != nil {
		k = cfg.FixedClusters[s]
	}
	if k <= 0 {
		k = mlkit.GapStatistic(points, cfg.MaxClusters, cfg.GapRefSets, rng)
		if k < cfg.MinClusters {
			k = cfg.MinClusters
		}
	}
	if k > len(groups) {
		k = len(groups)
	}
	res := mlkit.KMeans(points, k, rng)
	sm.k = len(res.Centroids)

	// Per-class, per-slice 90th percentiles of the REMAINING value from
	// that slice onward, over the member partial matches.
	sm.contrib = make([][]float64, sm.k)
	sm.consume = make([][]float64, sm.k)
	sm.freq = make([]float64, sm.k)
	perClass := make([][]*pmRecord, sm.k)
	for i, g := range groups {
		c := res.Labels[i]
		sm.freq[c] += float64(len(g.recs))
		perClass[c] = append(perClass[c], g.recs...)
	}
	for c := 0; c < sm.k; c++ {
		sm.freq[c] /= float64(len(recs))
		sm.contrib[c] = make([]float64, cfg.Slices)
		sm.consume[c] = make([]float64, cfg.Slices)
		for sl := 0; sl < cfg.Slices; sl++ {
			var cs, ws []float64
			for _, r := range perClass[c] {
				cs = append(cs, futureFrom(r.contrib, sl))
				ws = append(ws, futureFrom(r.consume, sl))
			}
			sm.contrib[c][sl] = percentile(cs, 90)
			sm.consume[c][sl] = math.Max(percentile(ws, 90), 1e-9)
		}
	}

	// Classifier: features -> class label, depth bounded by the cluster
	// count (§V-B "balanced decision trees, maximal depth = #clusters"),
	// trained on one sample per feature group.
	if sm.k > 1 {
		feats := make([][]float64, len(groups))
		labels := make([]int, len(groups))
		for i, g := range groups {
			feats[i] = g.features
			labels[i] = res.Labels[i]
		}
		sm.tree = mlkit.TrainTree(feats, labels, sm.k, 1)
	}
	// Class regions for event projection (nil tree => single class whose
	// region is the whole space).
	sm.regions = make([][]mlkit.Region, sm.k)
	if sm.tree != nil {
		for c := 0; c < sm.k; c++ {
			sm.regions[c] = sm.tree.ClassRegions(c)
		}
	}
	return sm
}

// featureKey appends the bits of a feature vector's floats to key. Two
// vectors share a key exactly when they print alike: every NaN maps to
// one key, as every NaN prints "NaN", while -0 and +0 stay apart.
func featureKey(key []byte, features []float64) []byte {
	for _, v := range features {
		if v != v {
			v = math.NaN()
		}
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
	}
	return key
}

func constSlices(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	idx := int(p/100*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// omega is the resource cost Ω(p) of a partial match: with explicit
// resource costs, its length plus the number of predicates evaluated per
// event while it is live; otherwise 1 (§IV-A, Fig 11 ablation).
func (model *Model) omega(pm *engine.PartialMatch) float64 {
	if !model.cfg.ResourceCosts {
		return 1
	}
	s := pm.State()
	preds := len(model.machine.States[s].Incremental)
	if s+1 < len(model.machine.States) {
		preds += len(model.machine.States[s+1].Bind)
		for _, g := range model.machine.States[s+1].Guards {
			preds += len(g.Preds) + 1
		}
	}
	return float64(pm.Len() + preds)
}

// Omega exposes the resource cost of a partial match under this model.
func (model *Model) Omega(pm *engine.PartialMatch) float64 { return model.omega(pm) }

// Slices returns the configured number of time slices.
func (model *Model) Slices() int { return model.cfg.Slices }

// NumClasses returns the number of classes at a state.
func (model *Model) NumClasses(state int) int { return model.states[state].k }

// Machine returns the automaton the model was trained for.
func (model *Model) Machine() *nfa.Machine { return model.machine }

// sliceOfPM maps a partial match to its current time slice given the
// current time (or sequence number for count windows): the slice indexes
// how much of the match's time-to-live has elapsed (§V-A).
func (model *Model) sliceOfPM(pm *engine.PartialMatch, now event.Time, nowSeq uint64) int {
	return model.sliceOfStart(pm.StartTime(), pm.StartSeq(), now, nowSeq)
}

// sliceOfStart is sliceOfPM on the raw window-start coordinates — the
// form the class-bucketed index walk uses, so a population snapshot bins
// matches into exactly the slices the drop predicate will see.
func (model *Model) sliceOfStart(startTime event.Time, startSeq uint64, now event.Time, nowSeq uint64) int {
	var sl int
	if model.sliceLen > 0 {
		sl = int((now - startTime) / model.sliceLen)
	} else {
		sl = int(nowSeq-startSeq) / model.sliceEvents
	}
	if sl < 0 {
		sl = 0
	}
	if sl >= model.cfg.Slices {
		sl = model.cfg.Slices - 1
	}
	return sl
}

// SliceOf returns the current time slice of a live partial match.
func (model *Model) SliceOf(pm *engine.PartialMatch, now event.Time, nowSeq uint64) int {
	return model.sliceOfPM(pm, now, nowSeq)
}

// Classify assigns a partial match to its class (§V-B online use of the
// per-state classifier). The per-match decision is O(tree depth).
func (model *Model) Classify(pm *engine.PartialMatch) int {
	return model.classifyInto(pm, make([]float64, 0, model.spec.dim(pm.State())))
}

// classifyInto is Classify with the feature vector built in a caller-
// owned scratch buffer (capacity featureSpec.maxDims).
func (model *Model) classifyInto(pm *engine.PartialMatch, buf []float64) int {
	sm := model.states[pm.State()]
	if sm.tree == nil {
		return 0
	}
	return sm.tree.Predict(model.spec.pmFeaturesInto(pm, buf))
}

// eventBestContribution is the highest ClassContribution among the
// event's candidate classes at a state (the classes with a region
// whose projection onto the event's own attribute positions contains
// the event's values), without materializing the class list. buf is a caller-owned scratch for the own-feature values.
func (model *Model) eventBestContribution(state int, e *event.Event, buf []float64) float64 {
	sm := model.states[state]
	if sm.tree == nil {
		return model.ClassContribution(state, 0)
	}
	own := model.spec.eventOwnFeaturesInto(state, e, buf)
	lo, hi := model.spec.ownStart[state], model.spec.ownEnd[state]
	best := 0.0
	for c := 0; c < sm.k; c++ {
		compatible := false
		for _, r := range sm.regions[c] {
			if regionCompatible(r, lo, hi, own) {
				compatible = true
				break
			}
		}
		if !compatible {
			continue
		}
		if u := model.ClassContribution(state, c); u > best {
			best = u
		}
	}
	return best
}

// regionCompatible checks the projection of a region onto feature
// positions [lo,hi) against the event's own values.
func regionCompatible(r mlkit.Region, lo, hi int, own []float64) bool {
	for i := lo; i < hi && i-lo < len(own); i++ {
		v := own[i-lo]
		if v < r.Lo[i] || v > r.Hi[i] {
			return false
		}
	}
	return true
}

// Estimate returns the current contribution and consumption estimates of
// a (state, class, slice) cell.
func (model *Model) Estimate(state, class, slice int) (contrib, consume float64) {
	sm := model.states[state]
	if class < 0 || class >= sm.k {
		class = 0
	}
	if slice < 0 {
		slice = 0
	}
	if slice >= model.cfg.Slices {
		slice = model.cfg.Slices - 1
	}
	return sm.contrib[class][slice], sm.consume[class][slice]
}

// setEstimate is used by the online Adapter.
func (model *Model) setEstimate(state, class, slice int, contrib, consume float64) {
	sm := model.states[state]
	sm.contrib[class][slice] = contrib
	sm.consume[class][slice] = math.Max(consume, 1e-9)
}

// ClassFreq returns the training frequency of a class at a state.
func (model *Model) ClassFreq(state, class int) float64 {
	sm := model.states[state]
	if class < 0 || class >= sm.k {
		return 0
	}
	return sm.freq[class]
}

// ClassContribution returns the contribution of a class aggregated over
// slices — the value ordering used when the shedding budget is a COUNT
// of items (fixed-ratio shedding): shedding N items loses the least when
// the lowest-contribution items go first, regardless of their cost.
func (model *Model) ClassContribution(state, class int) float64 {
	var c float64
	for sl := 0; sl < model.cfg.Slices; sl++ {
		cc, _ := model.Estimate(state, class, sl)
		c += cc
	}
	return c
}

// EstimationWork is the virtual cost charged when a shedding set is
// computed over n cells (the paper reports a few nanoseconds per DP over
// tens of classes; we charge proportionally).
func EstimationWork(cells int) vclock.Cost { return vclock.Cost(20 * cells) }
