// Package retrieval implements the paper's most-similar retrieval step
// (fig. 6): given a function request with QoS constraints, score every
// implementation variant of the requested function type against the
// request and return the best match(es).
//
// Two engines are provided. Engine is the double-precision reference —
// the role Matlab plays in §4.2 — and the serving engine, supporting
// pluggable similarity measures. FixedEngine (fixedengine.go) is the one
// Q15 engine: it reproduces the 16-bit datapath arithmetic bit-for-bit
// over the §5 block-compacted memory layout, so that the paper's claim
// "we get the same retrieval results in high precision floating point
// ... as we get from VHDL simulation" can be checked as a property over
// randomized case bases. The n-best extension sketched in §5 ("our next
// step will be an extension for getting n most similar solutions") is
// RetrieveN.
//
// Engine.Retrieve is literally fig. 6's single pass over the
// implementation sub-list: each variant is scored into a column the
// engine reuses, the running best (descending similarity, ties to the
// lower implementation ID) is kept as the pass goes, and the variants
// the threshold rejects are counted on the way. RetrieveN keeps the n
// best in the same kind of pass by bounded insertion; only RetrieveAll
// sorts. A warmed Retrieve allocates nothing, which is why an Engine is
// not safe for concurrent use.
package retrieval

import (
	"cmp"
	"fmt"
	"slices"

	"qosalloc/internal/casebase"
	"qosalloc/internal/similarity"
)

// LocalScore records one attribute comparison, a row of Table 1.
type LocalScore struct {
	ID     uint16  // attribute type ID
	Req    uint16  // requested value
	Impl   uint16  // implementation value (0 when missing)
	Found  bool    // implementation describes the attribute
	DMax   uint16  // design-global maximum distance
	Sim    float64 // local similarity s_i
	Weight float64 // weight w_i
}

// Result is one scored implementation variant.
type Result struct {
	Type       casebase.TypeID
	Impl       casebase.ImplID
	Target     casebase.Target
	Name       string
	Similarity float64      // global similarity S in [0, 1]
	Locals     []LocalScore // per-attribute breakdown, request order
}

// Options configure an Engine.
type Options struct {
	// Local is the per-attribute measure; nil means eq. (1) Linear.
	Local similarity.Local
	// Amalgamation combines local similarities; nil means eq. (2)
	// WeightedSum.
	Amalgamation similarity.Amalgamation
	// Threshold rejects results with S below it ("it's conceivable to
	// reject all results below a given threshold similarity", §3).
	// Zero admits everything.
	Threshold float64
	// KeepLocals retains the per-attribute breakdown in results.
	// Disable for large sweeps to avoid the allocations.
	KeepLocals bool
}

// Engine performs floating-point retrieval over a case base. An Engine
// is not safe for concurrent use: every walk scores into scratch storage
// the engine owns, so callers serialize access (the serving layer keeps
// one engine per shard, under the shard mutex).
type Engine struct {
	cb    *casebase.CaseBase
	opt   Options
	stats Stats
	met   *Metrics

	// Per-walk scratch, reused across walks. dmax and weights hold the
	// request's per-constraint constants, resolved once per walk; sims
	// is the local-similarity vector of the variant being scored;
	// scores is the global similarity column in storage order; locals
	// holds every variant's breakdown (KeepLocals only), one row of
	// len(Constraints) per variant; top serves n-best selection.
	dmax    []uint16
	weights []float64
	sims    []float64
	scores  []float64
	locals  []LocalScore
	top     []int
}

// Stats counts engine activity.
type Stats struct {
	Retrievals     int // retrieval runs
	ImplsScored    int // implementation variants scored
	AttrsCompared  int // attribute comparisons performed
	BelowThreshold int // variants rejected by the threshold
}

// NewEngine returns an Engine over cb. Nil option fields get the paper's
// defaults (Linear local measure, WeightedSum amalgamation).
func NewEngine(cb *casebase.CaseBase, opt Options) *Engine {
	if opt.Local == nil {
		opt.Local = similarity.Linear{}
	}
	if opt.Amalgamation == nil {
		opt.Amalgamation = similarity.WeightedSum{}
	}
	return &Engine{cb: cb, opt: opt, met: NewMetrics(nil)}
}

// Instrument points the engine's observability at the given bundle
// (typically shared with the service or the allocation manager's registry).
func (e *Engine) Instrument(m *Metrics) {
	if m != nil {
		e.met = m
	}
}

// CaseBase returns the engine's case base.
func (e *Engine) CaseBase() *casebase.CaseBase { return e.cb }

// Stats returns a copy of the activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// ErrNoMatch is returned when no implementation survives the threshold.
type ErrNoMatch struct {
	Type      casebase.TypeID
	Threshold float64
	Best      float64 // best similarity seen (informative for relaxation)
}

func (e *ErrNoMatch) Error() string {
	return fmt.Sprintf("retrieval: no implementation of type %d reaches threshold %.3f (best %.3f)",
		e.Type, e.Threshold, e.Best)
}

// walk validates the request and scores every implementation of the
// requested type into e.scores (storage order), the fig. 6 inner loop.
// With KeepLocals, variant i's breakdown lands in row i of e.locals.
// Stats and metric counters are updated once per walk; at quiescence
// the totals equal one increment per variant and per comparison.
//
// start is the latency clock reading taken once the request validated,
// for the caller to close with observeLatency after its selection.
func (e *Engine) walk(req casebase.Request) (ft *casebase.FunctionType, start int64, err error) {
	if err := req.Validate(e.cb); err != nil {
		return nil, 0, err
	}
	start = e.met.start()
	ft, _ = e.cb.Type(req.Type)
	e.stats.Retrievals++
	e.met.Retrievals.Inc()
	e.met.ImplsPerRetrieval.Observe(int64(len(ft.Impls)))
	n, k := len(ft.Impls), len(req.Constraints)
	e.scores = resize(e.scores, n)
	e.prepare(req)
	if e.opt.KeepLocals {
		e.locals = resize(e.locals, n*k)
	}
	for i := range ft.Impls {
		var row []LocalScore
		if e.opt.KeepLocals {
			row = e.locals[i*k : (i+1)*k]
		}
		e.scores[i] = e.score(&ft.Impls[i], req, row)
	}
	e.stats.ImplsScored += n
	e.met.ImplsScored.Add(int64(n))
	e.stats.AttrsCompared += n * k
	e.met.AttrsCompared.Add(int64(n * k))
	return ft, start, nil
}

// prepare resolves the request's per-constraint constants once per walk:
// the design-global dmax of each constrained attribute and the weight
// column handed to the amalgamation.
func (e *Engine) prepare(req casebase.Request) {
	k := len(req.Constraints)
	e.dmax = resize(e.dmax, k)
	e.weights = resize(e.weights, k)
	e.sims = resize(e.sims, k)
	for i, c := range req.Constraints {
		dmax, err := e.cb.Registry().DMax(c.ID)
		if err != nil {
			// Request validation catches this; scoring treats it
			// as unsatisfiable to stay total.
			dmax = 0
		}
		e.dmax[i] = dmax
		e.weights[i] = c.Weight
	}
}

// score computes the global similarity of one implementation against the
// request, filling locals (request order) when it is non-nil. Missing
// implementation attributes contribute s_i = 0 — "a missing attribute
// can be seen as unsatisfiable requirement" (§3).
func (e *Engine) score(im *casebase.Implementation, req casebase.Request, locals []LocalScore) float64 {
	for i, c := range req.Constraints {
		v, found := im.Attr(c.ID)
		var s float64
		if found {
			s = e.opt.Local.Similarity(c.Value, v, e.dmax[i])
		}
		e.sims[i] = s
		if locals != nil {
			locals[i] = LocalScore{
				ID: uint16(c.ID), Req: uint16(c.Value), Impl: uint16(v),
				Found: found, DMax: e.dmax[i], Sim: s, Weight: c.Weight,
			}
		}
	}
	return e.opt.Amalgamation.Combine(e.sims, e.weights)
}

// resize returns buf with length n, reallocating only when it is too
// small; the contents are left for the caller to overwrite.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// rank orders variants i and j of the last walk, negative when i ranks
// ahead: higher similarity first, ties broken by ascending implementation
// ID, the order the hardware scan keeps.
func (e *Engine) rank(ft *casebase.FunctionType, i, j int) int {
	si, sj := e.scores[i], e.scores[j]
	switch {
	case si > sj:
		return -1
	case si < sj:
		return 1
	case si != sj:
		return 0 // NaN is unordered against everything
	}
	return cmp.Compare(ft.Impls[i].ID, ft.Impls[j].ID)
}

// ahead reports whether variant i of the last walk ranks ahead of j.
func (e *Engine) ahead(ft *casebase.FunctionType, i, j int) bool { return e.rank(ft, i, j) < 0 }

// result materializes variant i of the last walk, with a private copy of
// its locals row when KeepLocals is on.
func (e *Engine) result(ft *casebase.FunctionType, i, k int) Result {
	im := &ft.Impls[i]
	r := Result{
		Type: ft.ID, Impl: im.ID, Target: im.Target, Name: im.Name,
		Similarity: e.scores[i],
	}
	if e.opt.KeepLocals {
		r.Locals = slices.Clone(e.locals[i*k : (i+1)*k])
	}
	return r
}

// RetrieveAll scores every implementation of the requested type and
// returns the results sorted by descending similarity (ties broken by
// ascending implementation ID, the order the hardware scan would keep).
// The threshold is NOT applied; callers see the full field.
func (e *Engine) RetrieveAll(req casebase.Request) ([]Result, error) {
	ft, start, err := e.walk(req)
	if err != nil {
		return nil, err
	}
	k := len(req.Constraints)
	e.top = resize(e.top, len(ft.Impls))
	for i := range e.top {
		e.top[i] = i
	}
	slices.SortStableFunc(e.top, func(i, j int) int { return e.rank(ft, i, j) })
	out := make([]Result, len(e.top))
	for r, i := range e.top {
		out[r] = e.result(ft, i, k)
	}
	e.met.observeLatency(start)
	return out, nil
}

// Retrieve returns the most similar implementation, applying the
// threshold. This is the fig. 6 algorithm: one pass over the
// implementation sub-list keeping the running best.
func (e *Engine) Retrieve(req casebase.Request) (Result, error) {
	ft, start, err := e.walk(req)
	if err != nil {
		return Result{}, err
	}
	top, err := e.selectTop(ft, req, 1)
	e.met.observeLatency(start)
	if err != nil {
		return Result{}, err
	}
	return e.result(ft, top[0], len(req.Constraints)), nil
}

// RetrieveN returns the up-to-n most similar implementations that meet
// the threshold, best first — the §5 n-best extension. It returns
// ErrNoMatch when none qualifies, so the caller can relax constraints.
func (e *Engine) RetrieveN(req casebase.Request, n int) ([]Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("retrieval: n must be positive, got %d", n)
	}
	ft, start, err := e.walk(req)
	if err != nil {
		return nil, err
	}
	top, err := e.selectTop(ft, req, n)
	e.met.observeLatency(start)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(top))
	for r, i := range top {
		out[r] = e.result(ft, i, len(req.Constraints))
	}
	return out, nil
}

// selectTop is the one selection pass over the last walk's scores: it
// keeps the n best variants that meet the threshold, best first, by
// bounded insertion (with n = 1, fig. 6's running best), counting the
// variants the threshold rejects and tracking the best one overall for
// ErrNoMatch.Best. The returned indices live in e.top until the next walk.
func (e *Engine) selectTop(ft *casebase.FunctionType, req casebase.Request, n int) ([]int, error) {
	th := e.opt.Threshold
	n = min(n, len(e.scores))
	top := e.top[:0]
	best, below := 0, 0
	for i, s := range e.scores {
		if e.ahead(ft, i, best) {
			best = i
		}
		if s < th {
			below++
			continue
		}
		if len(top) == n {
			if !e.ahead(ft, i, top[n-1]) {
				continue
			}
			top = top[:n-1]
		}
		j := len(top)
		top = append(top, i)
		for ; j > 0 && e.ahead(ft, i, top[j-1]); j-- {
			top[j] = top[j-1]
		}
		top[j] = i
	}
	e.top = top
	e.stats.BelowThreshold += below
	e.met.BelowThreshold.Add(int64(below))
	if len(top) == 0 {
		e.met.NoMatch.Inc()
		return nil, &ErrNoMatch{Type: req.Type, Threshold: th, Best: e.scores[best]}
	}
	return top, nil
}
