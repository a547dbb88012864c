package retrieval

import (
	"fmt"
	"sort"

	"qosalloc/internal/casebase"
	"qosalloc/internal/fixed"
	"qosalloc/internal/similarity"
)

// refEngine is the sort-based floating-point engine as it stood before
// the single-pass rewrite: score allocates per variant and resolves dmax
// through the registry per constraint, RetrieveAll stable-sorts the
// whole field, and Retrieve/RetrieveN read the sorted field. Like the
// engine, only its RetrieveAll keeps the per-attribute breakdown. It is
// kept only as the differential-test reference for Engine.
type refEngine struct {
	cb  *casebase.CaseBase
	opt Options
	met *Metrics
}

func newRefEngine(cb *casebase.CaseBase, opt Options) *refEngine {
	if opt.Local == nil {
		opt.Local = similarity.Linear{}
	}
	if opt.Amalgamation == nil {
		opt.Amalgamation = similarity.WeightedSum{}
	}
	return &refEngine{cb: cb, opt: opt, met: NewMetrics(nil)}
}

// Stats reads the reference's walk counters as Engine.Stats does.
func (e *refEngine) Stats() Stats { return bundleStats(e.met) }

// bundleStats returns the Stats an engine counting into m reports.
func bundleStats(m *Metrics) Stats {
	var e Engine
	e.Instrument(m)
	return e.Stats()
}

func (e *refEngine) score(im *casebase.Implementation, req casebase.Request) (float64, []LocalScore) {
	n := len(req.Constraints)
	sims := make([]float64, n)
	weights := make([]float64, n)
	locals := make([]LocalScore, n)
	for i, c := range req.Constraints {
		weights[i] = c.Weight
		dmax, err := e.cb.Registry().DMax(c.ID)
		if err != nil {
			dmax = 0
		}
		v, found := im.Attr(c.ID)
		var s float64
		if found {
			s = e.opt.Local.Similarity(c.Value, v, dmax)
		}
		sims[i] = s
		e.met.AttrsCompared.Inc()
		locals[i] = LocalScore{
			ID: uint16(c.ID), Req: uint16(c.Value), Impl: uint16(v),
			Found: found, DMax: dmax, Sim: s, Weight: c.Weight,
		}
	}
	return e.opt.Amalgamation.Combine(sims, weights), locals
}

func (e *refEngine) RetrieveAll(req casebase.Request) ([]Result, error) {
	if err := req.Validate(e.cb); err != nil {
		return nil, err
	}
	start := e.met.start()
	ft, _ := e.cb.Type(req.Type)
	e.met.Retrievals.Inc()
	e.met.ImplsPerRetrieval.Observe(int64(len(ft.Impls)))
	out := make([]Result, 0, len(ft.Impls))
	for i := range ft.Impls {
		im := &ft.Impls[i]
		s, locals := e.score(im, req)
		e.met.ImplsScored.Inc()
		out = append(out, Result{
			Type: req.Type, Impl: im.ID, Target: im.Target, Name: im.Name,
			Similarity: s, Locals: locals,
		})
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

func (e *refEngine) Retrieve(req casebase.Request) (Result, error) {
	all, err := e.RetrieveAll(req)
	if err != nil {
		return Result{}, err
	}
	best := all[0]
	best.Locals = nil
	if best.Similarity < e.opt.Threshold {
		e.met.BelowThreshold.Add(int64(len(all)))
		e.met.NoMatch.Inc()
		return Result{}, &ErrNoMatch{Type: req.Type, Threshold: e.opt.Threshold, Best: best.Similarity}
	}
	for _, r := range all {
		if r.Similarity < e.opt.Threshold {
			e.met.BelowThreshold.Inc()
		}
	}
	return best, nil
}

func (e *refEngine) RetrieveN(req casebase.Request, n int) ([]Result, error) {
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
			e.met.BelowThreshold.Inc()
			continue
		}
		if len(out) < n {
			r.Locals = nil
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		e.met.NoMatch.Inc()
		return nil, &ErrNoMatch{Type: req.Type, Threshold: e.opt.Threshold, Best: all[0].Similarity}
	}
	return out, nil
}

// fixedReference is the pointer-walking Q15 engine as it stood before
// the fold into the compacted kernel: it walks the case-base tree,
// looks every attribute up through Implementation.Attr and its
// reciprocal in a map, and converts the request weights once per
// variant. It is kept only as the differential-test reference and the
// bench-compact baseline for FixedEngine.
type fixedReference struct {
	cb     *casebase.CaseBase
	recips map[uint16]fixed.UQ16
}

func newFixedReference(cb *casebase.CaseBase) *fixedReference {
	fr := &fixedReference{cb: cb, recips: make(map[uint16]fixed.UQ16)}
	for _, id := range cb.Registry().IDs() {
		dmax, _ := cb.Registry().DMax(id)
		fr.recips[uint16(id)] = fixed.Recip(dmax)
	}
	return fr
}

// Score is the datapath arithmetic for one variant: s_i = 1 - d·recip
// per requested attribute (missing ⇒ 0), acc += w_i·s_i with saturation.
func (fr *fixedReference) Score(im *casebase.Implementation, req casebase.Request) fixed.Q15 {
	ws := make([]float64, len(req.Constraints))
	for i, c := range req.Constraints {
		ws[i] = c.Weight
	}
	w := fixed.WeightsQ15(ws)
	var acc fixed.Q15
	for i, c := range req.Constraints {
		v, found := im.Attr(c.ID)
		if !found {
			continue
		}
		d := fixed.Dist(uint16(c.Value), uint16(v))
		acc = fixed.WeightedAcc(acc, w[i], fixed.LocalSim(d, fr.recips[uint16(c.ID)]))
	}
	return acc
}

// Retrieve is fig. 6's running maximum in storage order, strict > so
// the first of equals wins.
func (fr *fixedReference) Retrieve(req casebase.Request) (FixedResult, error) {
	if err := req.Validate(fr.cb); err != nil {
		return FixedResult{}, err
	}
	ft, _ := fr.cb.Type(req.Type)
	best := FixedResult{Type: req.Type}
	haveBest := false
	for i := range ft.Impls {
		s := fr.Score(&ft.Impls[i], req)
		if !haveBest || s > best.Similarity {
			best.Impl = ft.Impls[i].ID
			best.Similarity = s
			haveBest = true
		}
	}
	if !haveBest {
		return FixedResult{}, fmt.Errorf("retrieval: type %d has no implementations", req.Type)
	}
	return best, nil
}

// RetrieveN is the n best, best first, ties by ascending implementation ID.
func (fr *fixedReference) RetrieveN(req casebase.Request, n int) ([]FixedResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("retrieval: n must be positive, got %d", n)
	}
	if err := req.Validate(fr.cb); err != nil {
		return nil, err
	}
	ft, _ := fr.cb.Type(req.Type)
	out := make([]FixedResult, 0, len(ft.Impls))
	for i := range ft.Impls {
		out = append(out, FixedResult{
			Type: req.Type, Impl: ft.Impls[i].ID,
			Similarity: fr.Score(&ft.Impls[i], req),
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		return out[i].Impl < out[j].Impl
	})
	if len(out) > n {
		out = out[:n]
	}
	return out, nil
}
