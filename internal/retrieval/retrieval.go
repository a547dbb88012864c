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
// Engine.Retrieve is fig. 6's retrieval over the implementation
// sub-list: every variant is scored into a column the engine reuses,
// then one selection pass keeps the running best (descending
// similarity, ties to the lower implementation ID) and counts the
// variants the threshold rejects. The walk reads attribute values from
// the type's attribute columns (casebase.FunctionType.Column, the §5
// block-compacted view), resolved once per constraint. With the default
// measures, eq. (1) Linear and eq. (2) WeightedSum, Retrieve and
// RetrieveN score the way fig. 7's datapath streams attribute blocks:
// one pass per constraint down its column, adding w_i·s_i into every
// variant's sum, and one clamp per variant at the end, with the same
// bits as scoring each variant alone. Any other measure, and
// RetrieveAll, score variant by variant through the Local and
// Amalgamation interfaces. RetrieveN keeps the n best by bounded
// insertion; only RetrieveAll sorts, and only RetrieveAll fills each
// result's per-attribute breakdown (Result.Locals), the rows of Table 1.
// A warmed Retrieve allocates nothing: the walk scores into scratch it
// borrows from a package-level pool, so an Engine holds no per-walk
// state and, like FixedEngine, is safe for concurrent use.
//
// The walk rests on two invariants of a validated case base. First,
// every found cell and every request value lies in its attribute's
// design range [Lo, Hi], so eq. (1)'s 1 - d/(1+dmax) is already in
// (0, 1] and the column kernel leaves its clamp out. Second, a type
// stores its variants strictly ascending by ID, so the tie rule (ties go
// to the lower ID) is storage order, and selection keeps its running
// best with one plain compare per variant, as fig. 6's unit does.
//
// The paper's bypass token (§3) lives here too (bypass.go). A Token holds
// the answer a walk gave for a request, and TokenCache keeps tokens, so a
// repeated call skips the walk and the tree. It keys tokens by a 64-bit
// Hash of the request, keeps a copy of each full request so a hash
// collision never serves a token, and holds at most DefaultMaxTokens of
// them in one open-addressing table with CLOCK eviction.
package retrieval

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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
	Similarity float64 // global similarity S in [0, 1]
	// Locals is the per-attribute breakdown in request order. Only
	// RetrieveAll fills it; Retrieve and RetrieveN leave it nil.
	Locals []LocalScore
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
}

// Engine performs floating-point retrieval over a case base. An Engine
// is safe for concurrent use: its case base and options never change,
// each walk scores into scratch storage it takes from a package-level
// pool for the length of the call, and the metric bundle that counts
// its activity sits behind an atomic pointer (the serving layer shares
// one engine per epoch among all its callers).
type Engine struct {
	cb  *casebase.CaseBase
	opt Options
	met atomic.Pointer[Metrics]
	// columns says the measures are eq. (1) Linear and eq. (2)
	// WeightedSum, so Retrieve and RetrieveN score with scoreColumns.
	columns bool
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
	_, linear := opt.Local.(similarity.Linear)
	_, sum := opt.Amalgamation.(similarity.WeightedSum)
	e := &Engine{cb: cb, opt: opt, columns: linear && sum}
	e.met.Store(NewMetrics(nil))
	return e
}

// Instrument points the engine's observability at the given bundle
// (typically shared with the service or the allocation manager's registry).
// Walks already under way finish on the bundle they started with.
func (e *Engine) Instrument(m *Metrics) {
	if m != nil {
		e.met.Store(m)
	}
}

// CaseBase returns the engine's case base.
func (e *Engine) CaseBase() *casebase.CaseBase { return e.cb }

// Stats reads the counters of the metric bundle the engine counts into.
// Engines that share a bundle (one service's epochs, or engines
// instrumented on one registry) report the bundle's totals; an engine
// never instrumented reports its own walks alone.
func (e *Engine) Stats() Stats {
	m := e.met.Load()
	return Stats{
		Retrievals:     int(m.Retrievals.Load()),
		ImplsScored:    int(m.ImplsScored.Load()),
		AttrsCompared:  int(m.AttrsCompared.Load()),
		BelowThreshold: int(m.BelowThreshold.Load()),
	}
}

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

// walkState is one walk's working storage. dmax, weights and cols hold
// the request's per-constraint constants and attribute columns, resolved
// once per walk; sims is the local-similarity vector of the variant
// being scored; scores is the global similarity column of ft's variants
// in storage order; locals holds every variant's breakdown (RetrieveAll
// only), one row of len(Constraints) per variant; top serves n-best
// selection. e, met, ft and start describe the walk in progress; keep
// says whether it fills locals.
type walkState struct {
	e     *Engine
	met   *Metrics
	ft    *casebase.FunctionType
	start int64
	keep  bool

	dmax    []uint16
	weights []float64
	cols    [][]casebase.Cell
	sims    []float64
	scores  []float64
	locals  []LocalScore
	top     []int
}

// walkPool recycles walk storage across every engine, so a warmed walk
// allocates nothing. It is one pool for the package, not one per
// engine, and release drops the pointers into the engine and its tree:
// a pooled walkState never keeps a retired case base alive.
var walkPool = sync.Pool{New: func() any { return new(walkState) }}

// release returns w to the pool. Results materialized from w stay valid.
func (w *walkState) release() {
	w.e, w.met, w.ft = nil, nil, nil
	clear(w.cols)
	walkPool.Put(w)
}

// walk validates the request and scores every implementation of the
// requested type into the returned state's scores (storage order), the
// fig. 6 inner loop. With keep (RetrieveAll), variant i's breakdown
// lands in row i of locals. The metric counters are updated once per
// walk; at quiescence the totals equal one increment per variant and
// per comparison. The latency clock starts once the request validated; the
// caller closes it with observeLatency after its selection, then
// releases the state.
func (e *Engine) walk(req casebase.Request, keep bool) (*walkState, error) {
	if err := req.Validate(e.cb); err != nil {
		return nil, err
	}
	w := walkPool.Get().(*walkState)
	w.e, w.met, w.keep = e, e.met.Load(), keep
	w.start = w.met.start()
	w.ft, _ = e.cb.Type(req.Type)
	w.met.Retrievals.Inc()
	w.met.ImplsPerRetrieval.Observe(int64(len(w.ft.Impls)))
	n, k := len(w.ft.Impls), len(req.Constraints)
	w.scores = resize(w.scores, n)
	w.prepare(req)
	switch {
	case keep:
		w.locals = resize(w.locals, n*k)
		for i := range w.ft.Impls {
			w.scores[i] = w.score(i, req, w.locals[i*k:(i+1)*k])
		}
	case e.columns:
		w.scoreColumns(req)
	default:
		for i := range w.ft.Impls {
			w.scores[i] = w.score(i, req, nil)
		}
	}
	w.met.ImplsScored.Add(int64(n))
	w.met.AttrsCompared.Add(int64(n * k))
	return w, nil
}

// prepare resolves the request's per-constraint constants once per walk:
// the design-global dmax of each constrained attribute, the weight
// column handed to the amalgamation and the attribute column of w.ft
// each constraint reads (nil when no variant describes it).
func (w *walkState) prepare(req casebase.Request) {
	k := len(req.Constraints)
	w.dmax = resize(w.dmax, k)
	w.weights = resize(w.weights, k)
	w.cols = resize(w.cols, k)
	w.sims = resize(w.sims, k)
	for i, c := range req.Constraints {
		dmax, err := w.e.cb.Registry().DMax(c.ID)
		if err != nil {
			// Request validation catches this; scoring treats it
			// as unsatisfiable to stay total.
			dmax = 0
		}
		w.dmax[i] = dmax
		w.weights[i] = c.Weight
		w.cols[i] = w.ft.Column(c.ID)
	}
}

// score computes the global similarity of variant v of w.ft against the
// request, filling locals (request order) when it is non-nil. Missing
// implementation attributes contribute s_i = 0 — "a missing attribute
// can be seen as unsatisfiable requirement" (§3).
func (w *walkState) score(v int, req casebase.Request, locals []LocalScore) float64 {
	opt := &w.e.opt
	for i, c := range req.Constraints {
		var cell casebase.Cell
		if col := w.cols[i]; col != nil {
			cell = col[v]
		}
		var s float64
		if cell.Found {
			s = opt.Local.Similarity(c.Value, cell.Value, w.dmax[i])
		}
		w.sims[i] = s
		if locals != nil {
			locals[i] = LocalScore{
				ID: uint16(c.ID), Req: uint16(c.Value), Impl: uint16(cell.Value),
				Found: cell.Found, DMax: w.dmax[i], Sim: s, Weight: c.Weight,
			}
		}
	}
	return opt.Amalgamation.Combine(w.sims, w.weights)
}

// scoreColumns is score with the default measures inlined, run one
// attribute column at a time: each constraint adds w_i·s_i, eq. (1)
// times its weight, into every variant's running sum, and eq. (2)'s
// clamp is applied once per variant at the end. Each score has the bits
// score gives it: the same division, and the same acc += w*s in request
// order. A missing cell, or a column no variant has, still adds w*0, as
// it does there.
//
// The cell loop has no branch on the data, since whether a cell is found
// is as good as random across variants. It rests on validation: the
// request's value and every found cell's value lie in the attribute's
// [Lo, Hi], so their distance d is at most dmax < 1+dmax, and eq. (1)'s
// 1 - d/(1+dmax) is in (0, 1]: its clamp is the identity and is left
// out. A missing cell reads as value 0, possibly far outside the range,
// which makes 1 - d/(1+dmax) finite but maybe negative; multiplying by
// found = 0 turns it into +0 or -0, and adding w·(±0) leaves every sum
// as adding the +0 of score's missing cell does.
func (w *walkState) scoreColumns(req casebase.Request) {
	scores := w.scores
	clear(scores)
	for i, c := range req.Constraints {
		wt := w.weights[i]
		col := w.cols[i]
		if col == nil {
			for v := range scores {
				scores[v] += wt * 0
			}
			continue
		}
		col = col[:len(scores)] // one bounds check per column, not per cell
		q := int(c.Value)
		den := 1 + float64(w.dmax[i])
		for v, cell := range col {
			found := 0
			if cell.Found {
				found = 1
			}
			d := q - int(cell.Value)
			if d < 0 {
				d = -d
			}
			scores[v] += wt * ((1 - float64(d)/den) * float64(found))
		}
	}
	for v, s := range scores {
		scores[v] = clamp01(s)
	}
}

// clamp01 is similarity's clamp, for eq. (2)'s sum.
func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// resize returns buf with length n, reallocating only when it is too
// small; the contents are left for the caller to overwrite.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// rank orders variants i and j of the walk, negative when i ranks
// ahead: higher similarity first, ties broken by ascending implementation
// ID, the order the hardware scan keeps. RetrieveAll sorts by it.
func (w *walkState) rank(i, j int) int {
	si, sj := w.scores[i], w.scores[j]
	switch {
	case si > sj:
		return -1
	case si < sj:
		return 1
	case si != sj:
		return 0 // NaN is unordered against everything
	}
	return cmp.Compare(w.ft.Impls[i].ID, w.ft.Impls[j].ID)
}

// result materializes variant i of the walk, with a private copy of its
// locals row when the walk keeps them.
func (w *walkState) result(i, k int) Result {
	im := &w.ft.Impls[i]
	r := Result{
		Type: w.ft.ID, Impl: im.ID, Target: im.Target, Name: im.Name,
		Similarity: w.scores[i],
	}
	if w.keep {
		r.Locals = slices.Clone(w.locals[i*k : (i+1)*k])
	}
	return r
}

// RetrieveAll scores every implementation of the requested type and
// returns the results sorted by descending similarity (ties broken by
// ascending implementation ID, the order the hardware scan would keep),
// each with its per-attribute breakdown in Locals. The threshold is NOT
// applied; callers see the full field. Its first n results are what a
// threshold-free RetrieveN(req, n) returns, plus the breakdowns.
func (e *Engine) RetrieveAll(req casebase.Request) ([]Result, error) {
	w, err := e.walk(req, true)
	if err != nil {
		return nil, err
	}
	defer w.release()
	k := len(req.Constraints)
	w.top = resize(w.top, len(w.ft.Impls))
	for i := range w.top {
		w.top[i] = i
	}
	slices.SortStableFunc(w.top, w.rank)
	out := make([]Result, len(w.top))
	for r, i := range w.top {
		out[r] = w.result(i, k)
	}
	w.met.observeLatency(w.start)
	return out, nil
}

// Retrieve returns the most similar implementation, applying the
// threshold. This is the fig. 6 algorithm: one pass over the
// implementation sub-list keeping the running best.
func (e *Engine) Retrieve(req casebase.Request) (Result, error) {
	w, err := e.walk(req, false)
	if err != nil {
		return Result{}, err
	}
	defer w.release()
	top, err := w.selectTop(req, 1)
	w.met.observeLatency(w.start)
	if err != nil {
		return Result{}, err
	}
	return w.result(top[0], len(req.Constraints)), nil
}

// RetrieveN returns the up-to-n most similar implementations that meet
// the threshold, best first — the §5 n-best extension. It returns
// ErrNoMatch when none qualifies, so the caller can relax constraints.
func (e *Engine) RetrieveN(req casebase.Request, n int) ([]Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("retrieval: n must be positive, got %d", n)
	}
	w, err := e.walk(req, false)
	if err != nil {
		return nil, err
	}
	defer w.release()
	top, err := w.selectTop(req, n)
	w.met.observeLatency(w.start)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(top))
	for r, i := range top {
		out[r] = w.result(i, len(req.Constraints))
	}
	return out, nil
}

// selectTop is the one selection pass over the walk's scores: it keeps
// the n best variants that meet the threshold, best first, by bounded
// insertion (with n = 1, fig. 6's running best), counting the variants
// the threshold rejects and tracking the best score overall for
// ErrNoMatch.Best. The returned indices live in w.top until w is
// released.
//
// Variants are stored in strictly ascending ID order (validate sorts
// them, and IDs are unique within a type), so a later variant ranks
// ahead of an earlier one exactly when its score is greater: a tie goes
// to the earlier, lower ID, and a NaN score is never ahead. One plain
// compare against the running best and one against the cut-off score
// of the n-th kept variant therefore do rank's work.
func (w *walkState) selectTop(req casebase.Request, n int) ([]int, error) {
	th := w.e.opt.Threshold
	scores := w.scores
	n = min(n, len(scores))
	top := w.top[:0]
	best, cut, below := scores[0], 0.0, 0
	for i, s := range scores {
		if s > best {
			best = s
		}
		if s < th {
			below++
			continue
		}
		if len(top) == n {
			if !(s > cut) {
				continue
			}
			top = top[:n-1]
		}
		j := len(top)
		top = append(top, i)
		for ; j > 0 && s > scores[top[j-1]]; j-- {
			top[j] = top[j-1]
		}
		top[j] = i
		if len(top) == n {
			cut = scores[top[n-1]]
		}
	}
	w.top = top
	w.met.BelowThreshold.Add(int64(below))
	if len(top) == 0 {
		w.met.NoMatch.Inc()
		return nil, &ErrNoMatch{Type: req.Type, Threshold: th, Best: best}
	}
	return top, nil
}
