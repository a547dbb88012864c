// Package retrieval implements the paper's most-similar retrieval step
// (fig. 6): given a function request with QoS constraints, score every
// implementation variant of the requested function type against the
// request and return the best match(es).
//
// Two engines are provided. Engine is the double-precision reference —
// the role Matlab plays in §4.2 — supporting pluggable similarity
// measures. FixedEngine (fixedengine.go) reproduces the 16-bit datapath
// arithmetic bit-for-bit, so that the paper's claim "we get the same
// retrieval results in high precision floating point ... as we get from
// VHDL simulation" can be checked as a property over randomized case
// bases. The n-best extension sketched in §5 ("our next step will be an
// extension for getting n most similar solutions") is RetrieveN.
package retrieval

import (
	"fmt"
	"sort"

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
	// CompactLayout serves retrieval from the block-compacted memory
	// layout (§5): scores come from the branch-free Q15 kernel over
	// structure-of-arrays attribute blocks, converted to float64 at
	// datapath precision. It applies only with the paper's default
	// measures — a custom Local or Amalgamation, or KeepLocals, keeps
	// the floating-point path, since the compacted kernel computes
	// neither. Thresholding and n-best selection behave identically on
	// the quantized similarities.
	CompactLayout bool
}

// Engine performs floating-point retrieval over a case base.
type Engine struct {
	cb    *casebase.CaseBase
	opt   Options
	stats Stats
	met   *Metrics
	// compact is the block-compacted kernel, non-nil only when
	// Options.CompactLayout applies (default measures, no locals).
	compact *CompactEngine
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
	// Compact-layout eligibility is decided before the nil fields are
	// defaulted: a caller-supplied measure (or a locals request) means
	// the floating-point path must run, because the compacted kernel
	// hard-wires the paper's Linear/WeightedSum datapath arithmetic.
	var compact *CompactEngine
	if opt.CompactLayout && opt.Local == nil && opt.Amalgamation == nil && !opt.KeepLocals {
		// Construction fails only past the 16-bit word-address space
		// of the compacted image; such a case base cannot exist in
		// hardware, so the software engine falls back to the
		// floating-point path rather than refusing service.
		compact, _ = NewCompactEngine(cb)
	}
	if opt.Local == nil {
		opt.Local = similarity.Linear{}
	}
	if opt.Amalgamation == nil {
		opt.Amalgamation = similarity.WeightedSum{}
	}
	return &Engine{cb: cb, opt: opt, met: NewMetrics(nil), compact: compact}
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

// score computes the global similarity of one implementation against the
// request. Missing implementation attributes contribute s_i = 0 — "a
// missing attribute can be seen as unsatisfiable requirement" (§3).
func (e *Engine) score(im *casebase.Implementation, req casebase.Request) (float64, []LocalScore) {
	n := len(req.Constraints)
	sims := make([]float64, n)
	weights := make([]float64, n)
	var locals []LocalScore
	if e.opt.KeepLocals {
		locals = make([]LocalScore, n)
	}
	for i, c := range req.Constraints {
		weights[i] = c.Weight
		dmax, err := e.cb.Registry().DMax(c.ID)
		if err != nil {
			// Request validation catches this; scoring treats it
			// as unsatisfiable to stay total.
			dmax = 0
		}
		v, found := im.Attr(c.ID)
		var s float64
		if found {
			s = e.opt.Local.Similarity(c.Value, v, dmax)
		}
		sims[i] = s
		e.stats.AttrsCompared++
		e.met.AttrsCompared.Inc()
		if e.opt.KeepLocals {
			locals[i] = LocalScore{
				ID: uint16(c.ID), Req: uint16(c.Value), Impl: uint16(v),
				Found: found, DMax: dmax, Sim: s, Weight: c.Weight,
			}
		}
	}
	return e.opt.Amalgamation.Combine(sims, weights), locals
}

// RetrieveAll scores every implementation of the requested type and
// returns the results sorted by descending similarity (ties broken by
// ascending implementation ID, the order the hardware scan would keep).
// The threshold is NOT applied; callers see the full field.
func (e *Engine) RetrieveAll(req casebase.Request) ([]Result, error) {
	if err := req.Validate(e.cb); err != nil {
		return nil, err
	}
	start := e.met.start()
	ft, _ := e.cb.Type(req.Type)
	e.stats.Retrievals++
	e.met.Retrievals.Inc()
	e.met.ImplsPerRetrieval.Observe(int64(len(ft.Impls)))
	out := make([]Result, 0, len(ft.Impls))
	if e.compact != nil {
		// Compacted datapath: one kernel pass yields the Q15 column in
		// storage order; implementation metadata is zipped back in from
		// the case base, which shares that order.
		qs, err := e.compact.scoreType(req)
		if err != nil {
			return nil, err
		}
		for i := range ft.Impls {
			im := &ft.Impls[i]
			e.stats.ImplsScored++
			e.met.ImplsScored.Inc()
			e.stats.AttrsCompared += len(req.Constraints)
			e.met.AttrsCompared.Add(int64(len(req.Constraints)))
			out = append(out, Result{
				Type: req.Type, Impl: im.ID, Target: im.Target, Name: im.Name,
				Similarity: qs[i].Float(),
			})
		}
	} else {
		for i := range ft.Impls {
			im := &ft.Impls[i]
			s, locals := e.score(im, req)
			e.stats.ImplsScored++
			e.met.ImplsScored.Inc()
			out = append(out, Result{
				Type: req.Type, Impl: im.ID, Target: im.Target, Name: im.Name,
				Similarity: s, Locals: locals,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		return out[i].Impl < out[j].Impl
	})
	e.met.observeLatency(start)
	return out, nil
}

// Retrieve returns the most similar implementation, applying the
// threshold. This is the fig. 6 algorithm: one pass over the
// implementation sub-list keeping the running best.
func (e *Engine) Retrieve(req casebase.Request) (Result, error) {
	all, err := e.RetrieveAll(req)
	if err != nil {
		return Result{}, err
	}
	best := all[0]
	if best.Similarity < e.opt.Threshold {
		e.stats.BelowThreshold += len(all)
		e.met.BelowThreshold.Add(int64(len(all)))
		e.met.NoMatch.Inc()
		return Result{}, &ErrNoMatch{Type: req.Type, Threshold: e.opt.Threshold, Best: best.Similarity}
	}
	for _, r := range all {
		if r.Similarity < e.opt.Threshold {
			e.stats.BelowThreshold++
			e.met.BelowThreshold.Inc()
		}
	}
	return best, nil
}

// RetrieveN returns the up-to-n most similar implementations that meet
// the threshold, best first — the §5 n-best extension. It returns
// ErrNoMatch when none qualifies, so the caller can relax constraints.
func (e *Engine) RetrieveN(req casebase.Request, n int) ([]Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("retrieval: n must be positive, got %d", n)
	}
	all, err := e.RetrieveAll(req)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, n)
	for _, r := range all {
		if r.Similarity < e.opt.Threshold {
			e.stats.BelowThreshold++
			e.met.BelowThreshold.Inc()
			continue
		}
		if len(out) < n {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		e.met.NoMatch.Inc()
		return nil, &ErrNoMatch{Type: req.Type, Threshold: e.opt.Threshold, Best: all[0].Similarity}
	}
	return out, nil
}
