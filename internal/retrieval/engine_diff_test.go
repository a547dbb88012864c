package retrieval

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/similarity"
)

// tieCaseBase builds a small random case base shaped to stress the
// selection order: narrow design ranges and copied attribute sets force
// exact similarity ties, variable attribute counts leave constraints
// unmatched, and implementation IDs are sparse and inserted out of order.
func tieCaseBase(r *rand.Rand) (*casebase.CaseBase, *attr.Registry) {
	reg := attr.NewRegistry()
	universe := 3 + r.Intn(8)
	spans := []int{0, 1, 2, 3, 200, 5000}
	for i := 1; i <= universe; i++ {
		lo := attr.Value(r.Intn(50))
		hi := lo + attr.Value(spans[r.Intn(len(spans))])
		reg.MustDefine(attr.Def{ID: attr.ID(i), Name: "a", Lo: lo, Hi: hi})
	}
	b := casebase.NewBuilder(reg)
	for _, t := range r.Perm(400)[:1+r.Intn(3)] {
		tid := casebase.TypeID(t + 1)
		b.AddType(tid, "t")
		var prev [][]attr.Pair
		for k, id := range r.Perm(900)[:1+r.Intn(12)] {
			var ps []attr.Pair
			if len(prev) > 0 && r.Intn(3) == 0 {
				ps = prev[r.Intn(len(prev))]
			} else {
				for _, ai := range r.Perm(universe)[:r.Intn(universe+1)] {
					d, _ := reg.Lookup(attr.ID(ai + 1))
					ps = append(ps, attr.Pair{ID: d.ID, Value: d.Lo + attr.Value(r.Intn(int(d.Hi-d.Lo)+1))})
				}
			}
			prev = append(prev, ps)
			b.AddImpl(tid, casebase.Implementation{
				ID: casebase.ImplID(id + 1), Name: fmt.Sprintf("v%d", k),
				Target: casebase.Target(r.Intn(3)), Attrs: ps,
			})
		}
	}
	cb, err := b.Build()
	if err != nil {
		panic(err)
	}
	return cb, reg
}

// tieRequest draws a request against cb: random constraint subsets (so
// some miss every variant), equal, random or zero weights, sorted or
// reversed constraint order, and now and then an invalid request (an
// unknown type, no constraints, a duplicate, a weight of 1.5 or NaN).
func tieRequest(r *rand.Rand, cb *casebase.CaseBase, reg *attr.Registry) casebase.Request {
	types := cb.Types()
	req := casebase.Request{Type: types[r.Intn(len(types))].ID}
	ids := reg.IDs()
	for _, i := range r.Perm(len(ids))[:1+r.Intn(len(ids))] {
		d, _ := reg.Lookup(ids[i])
		c := casebase.Constraint{ID: d.ID, Value: d.Lo + attr.Value(r.Intn(int(d.Hi-d.Lo)+1))}
		if r.Intn(2) == 0 {
			c.Weight = float64(r.Intn(5)) / 4
		} else {
			c.Weight = r.Float64()
		}
		req.Constraints = append(req.Constraints, c)
	}
	switch r.Intn(12) {
	case 0:
		req = req.EqualWeights()
	case 1:
		req = req.NormalizeWeights()
	case 2:
		req = casebase.NewRequest(req.Type, req.Constraints...)
	case 3:
		req.Type = 0xFFFE // unknown type
	case 4:
		req.Constraints = nil
	case 5:
		req.Constraints = append(req.Constraints, req.Constraints[0]) // duplicate
	case 6:
		req.Constraints[0].Weight = 1.5
	case 7:
		req.Constraints[0].Weight = math.NaN() // fails Validate, as 1.5 does
	}
	return req
}

// edgeCaseBase builds a small random case base at the edges of the
// 16-bit encoding, beside tieCaseBase's narrow ranges: one attribute
// spans the full range [0, 0xFFFF], one is pinned near the top at
// [0xFFF0, 0xFFFF], so that a missing cell's value 0 lies far below its
// range, and attribute, type and implementation IDs reach 0xFFFE, the
// highest one not reserved. Values fall on a bound as often as between
// them, copied attribute sets force ties, and attributes and variants
// are defined out of ID order.
func edgeCaseBase(r *rand.Rand) (*casebase.CaseBase, *attr.Registry) {
	reg := attr.NewRegistry()
	bounds := [][2]attr.Value{{0, 0xFFFF}, {0xFFF0, 0xFFFF}}
	spans := []int{0, 1, 3, 0x100}
	for k, id := range edgeIDs(r, 3+r.Intn(4)) {
		d := attr.Def{ID: attr.ID(id), Name: "a"}
		if k < len(bounds) {
			d.Lo, d.Hi = bounds[k][0], bounds[k][1]
		} else {
			d.Lo = attr.Value(r.Intn(0x10000))
			d.Hi = d.Lo + attr.Value(min(spans[r.Intn(len(spans))], 0xFFFF-int(d.Lo)))
		}
		reg.MustDefine(d)
	}
	ids := reg.IDs()
	b := casebase.NewBuilder(reg)
	for _, t := range edgeIDs(r, 1+r.Intn(3)) {
		tid := casebase.TypeID(t)
		b.AddType(tid, "t")
		var prev [][]attr.Pair
		for k, id := range edgeIDs(r, 1+r.Intn(12)) {
			var ps []attr.Pair
			if len(prev) > 0 && r.Intn(3) == 0 {
				ps = prev[r.Intn(len(prev))]
			} else {
				for _, ai := range r.Perm(len(ids))[:r.Intn(len(ids)+1)] {
					d, _ := reg.Lookup(ids[ai])
					ps = append(ps, attr.Pair{ID: d.ID, Value: edgeValue(r, d)})
				}
			}
			prev = append(prev, ps)
			b.AddImpl(tid, casebase.Implementation{
				ID: casebase.ImplID(id), Name: fmt.Sprintf("v%d", k),
				Target: casebase.Target(r.Intn(3)), Attrs: ps,
			})
		}
	}
	cb, err := b.Build()
	if err != nil {
		panic(err)
	}
	return cb, reg
}

// edgeIDs draws n distinct IDs from [1, 0xFFFE], 0xFFFE first, the
// others drawn near either end of the range or anywhere in it. A drawn
// ID already taken gives way to the next free one below it, so the draw
// ends even when r repeats itself.
func edgeIDs(r *rand.Rand, n int) []uint16 {
	ids := []uint16{0xFFFE}
	for len(ids) < n {
		var id uint16
		switch r.Intn(3) {
		case 0:
			id = 0xFFFE - uint16(r.Intn(8))
		case 1:
			id = 1 + uint16(r.Intn(8))
		default:
			id = 1 + uint16(r.Intn(0xFFFE))
		}
		for slices.Contains(ids, id) {
			if id--; id == 0 {
				id = 0xFFFE
			}
		}
		ids = append(ids, id)
	}
	return ids
}

// edgeValue draws a value of d: its lower bound, its upper bound, or
// one in between.
func edgeValue(r *rand.Rand, d attr.Def) attr.Value {
	switch r.Intn(4) {
	case 0:
		return d.Lo
	case 1:
		return d.Hi
	}
	return d.Lo + attr.Value(r.Intn(int(d.Hi-d.Lo)+1))
}

// edgeRequest is tieRequest with about half of its constraint values
// moved onto a bound of their attribute.
func edgeRequest(r *rand.Rand, cb *casebase.CaseBase, reg *attr.Registry) casebase.Request {
	req := tieRequest(r, cb, reg)
	for i, c := range req.Constraints {
		if d, ok := reg.Lookup(c.ID); ok && r.Intn(2) == 0 {
			req.Constraints[i].Value = []attr.Value{d.Lo, d.Hi}[r.Intn(2)]
		}
	}
	return req
}

// caseBaseGens are the random case-base shapes the differential tests
// run over, each with its request generator.
var caseBaseGens = []struct {
	name string
	cb   func(*rand.Rand) (*casebase.CaseBase, *attr.Registry)
	req  func(*rand.Rand, *casebase.CaseBase, *attr.Registry) casebase.Request
}{
	{"tie", tieCaseBase, tieRequest},
	{"edge", edgeCaseBase, edgeRequest},
}

// retriever is the float retrieval surface Engine and refEngine share.
type retriever interface {
	Retrieve(casebase.Request) (Result, error)
	RetrieveN(casebase.Request, int) ([]Result, error)
	RetrieveAll(casebase.Request) ([]Result, error)
	Stats() Stats
}

// sameResult compares two results field by field, floats by their bits.
func sameResult(a, b Result) error {
	if a.Type != b.Type || a.Impl != b.Impl || a.Target != b.Target || a.Name != b.Name {
		return fmt.Errorf("identity %d/%d %v %q vs %d/%d %v %q", a.Type, a.Impl, a.Target, a.Name, b.Type, b.Impl, b.Target, b.Name)
	}
	if math.Float64bits(a.Similarity) != math.Float64bits(b.Similarity) {
		return fmt.Errorf("impl %d: similarity %v vs %v", a.Impl, a.Similarity, b.Similarity)
	}
	if (a.Locals == nil) != (b.Locals == nil) || len(a.Locals) != len(b.Locals) {
		return fmt.Errorf("impl %d: locals %v vs %v", a.Impl, a.Locals, b.Locals)
	}
	for i, l := range a.Locals {
		m := b.Locals[i]
		if l.ID != m.ID || l.Req != m.Req || l.Impl != m.Impl || l.Found != m.Found || l.DMax != m.DMax ||
			math.Float64bits(l.Sim) != math.Float64bits(m.Sim) || math.Float64bits(l.Weight) != math.Float64bits(m.Weight) {
			return fmt.Errorf("impl %d: local %d %+v vs %+v", a.Impl, i, l, m)
		}
	}
	return nil
}

func sameResults(a, b []Result) error {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return fmt.Errorf("%d results (nil %v) vs %d (nil %v)", len(a), a == nil, len(b), b == nil)
	}
	for i := range a {
		if err := sameResult(a[i], b[i]); err != nil {
			return fmt.Errorf("rank %d: %w", i, err)
		}
	}
	return nil
}

// sameError requires both errors nil, or the same message and, for
// ErrNoMatch, the same fields with Best compared by its bits.
func sameError(a, b error) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("error %v vs %v", a, b)
	}
	if a == nil {
		return nil
	}
	if a.Error() != b.Error() {
		return fmt.Errorf("error %q vs %q", a, b)
	}
	var na, nb *ErrNoMatch
	if errors.As(a, &na) != errors.As(b, &nb) {
		return fmt.Errorf("error types %T vs %T", a, b)
	}
	if na != nil && (na.Type != nb.Type || math.Float64bits(na.Threshold) != math.Float64bits(nb.Threshold) ||
		math.Float64bits(na.Best) != math.Float64bits(nb.Best)) {
		return fmt.Errorf("ErrNoMatch %+v vs %+v", *na, *nb)
	}
	return nil
}

// metricState is every observable of a Metrics bundle.
type metricState struct {
	Counters     [5]int64
	ImplsPerRetr [3]any
	Latency      [3]any
}

func metricsOf(m *Metrics) metricState {
	hist := func(h interface {
		Count() int64
		Sum() int64
		BucketCounts() []int64
	}) [3]any {
		return [3]any{h.Count(), h.Sum(), h.BucketCounts()}
	}
	return metricState{
		Counters: [5]int64{m.Retrievals.Load(), m.ImplsScored.Load(), m.AttrsCompared.Load(),
			m.BelowThreshold.Load(), m.NoMatch.Load()},
		ImplsPerRetr: hist(m.ImplsPerRetrieval),
		Latency:      hist(m.Latency),
	}
}

// stepClock is a deterministic Metrics.Now: every reading advances it,
// so the latency histogram pins how often and in which order each
// engine reads the clock.
func stepClock() func() int64 {
	var t, dt int64
	return func() int64 {
		dt++
		t += dt
		return t
	}
}

// TestEngineMatchesSortReference is the differential test for the
// single-pass engine: on seeded random case bases of every shape in
// caseBaseGens, rich in ties and missing attributes, every entry point must return exactly what the
// sort-based reference returns — results, locals and similarity bits,
// errors and ErrNoMatch.Best bits — and leave identical Stats and metric
// counters after every call, across measures and thresholds. RetrieveAll
// must carry the reference's per-attribute breakdowns, and Retrieve and
// RetrieveN must carry none. Earlier results are re-checked at the end of each trial to catch
// answers aliasing reused engine storage.
func TestEngineMatchesSortReference(t *testing.T) {
	measures := []struct {
		local similarity.Local
		amal  similarity.Amalgamation
	}{
		{nil, nil},
		{similarity.Quadratic{}, nil},
		{similarity.Exact{}, similarity.Minimum{}},
		{nil, similarity.Minimum{}},
		{similarity.AtLeast{}, similarity.WeightedEuclid{}},
	}
	trials := 40
	if testing.Short() || raceEnabled {
		trials = 10
	}
	for _, g := range caseBaseGens {
		t.Run(g.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(14))
			for trial := 0; trial < trials; trial++ {
				cb, reg := g.cb(r)
				reqs := make([]casebase.Request, 8)
				for i := range reqs {
					reqs[i] = g.req(r, cb, reg)
					if r.Intn(3) == 0 {
						reqs[i] = unsortRequest(reqs[i])
					}
				}
				for mi, ms := range measures {
					opt := Options{Local: ms.local, Amalgamation: ms.amal}
					for _, th := range diffThresholds(r, cb, opt, reqs) {
						opt.Threshold = th
						name := fmt.Sprintf("trial %d measures %d threshold %v", trial, mi, th)
						diffEngines(t, name, cb, opt, reqs)
					}
				}
			}
		})
	}
}

// diffThresholds returns thresholds admitting everything, nothing, and a
// share of the field: one drawn exactly from a similarity the engine
// produces, so equality with the threshold is exercised too.
func diffThresholds(r *rand.Rand, cb *casebase.CaseBase, opt Options, reqs []casebase.Request) []float64 {
	out := []float64{0, 1.5}
	ref := newRefEngine(cb, opt)
	for _, req := range reqs {
		if all, err := ref.RetrieveAll(req); err == nil {
			out = append(out, all[r.Intn(len(all))].Similarity)
			break
		}
	}
	return out
}

func diffEngines(t *testing.T, name string, cb *casebase.CaseBase, opt Options, reqs []casebase.Request) {
	t.Helper()
	e, ref := NewEngine(cb, opt), newRefEngine(cb, opt)
	em, rm := NewMetrics(nil), NewMetrics(nil)
	em.Now, rm.Now = stepClock(), stepClock()
	e.Instrument(em)
	ref.met = rm

	type answer struct {
		op       string
		got, ref []Result
	}
	var kept []answer
	check := func(op string, got, want []Result, gerr, werr error) {
		t.Helper()
		for _, r := range got {
			if wantLocals := strings.HasSuffix(op, "RetrieveAll"); (r.Locals != nil) != wantLocals {
				t.Fatalf("%s: %s: impl %d has locals %v", name, op, r.Impl, r.Locals)
			}
		}
		if err := sameResults(got, want); err != nil {
			t.Fatalf("%s: %s: %v", name, op, err)
		}
		if err := sameError(gerr, werr); err != nil {
			t.Fatalf("%s: %s: %v", name, op, err)
		}
		if e.Stats() != ref.Stats() {
			t.Fatalf("%s: %s: stats %+v vs %+v", name, op, e.Stats(), ref.Stats())
		}
		if g, w := metricsOf(em), metricsOf(rm); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: %s: metrics %+v vs %+v", name, op, g, w)
		}
		kept = append(kept, answer{op, got, want})
	}
	for qi, req := range reqs {
		got, gerr := e.Retrieve(req)
		want, werr := ref.Retrieve(req)
		check(fmt.Sprintf("req %d Retrieve", qi), []Result{got}, []Result{want}, gerr, werr)

		ft, ok := cb.Type(req.Type)
		ns := []int{0, 1, 3}
		if ok {
			ns = append(ns, len(ft.Impls), len(ft.Impls)+2)
		}
		for _, n := range ns {
			gl, gerr := e.RetrieveN(req, n)
			wl, werr := ref.RetrieveN(req, n)
			check(fmt.Sprintf("req %d RetrieveN(%d)", qi, n), gl, wl, gerr, werr)
		}

		ga, gerr := e.RetrieveAll(req)
		wa, werr := ref.RetrieveAll(req)
		check(fmt.Sprintf("req %d RetrieveAll", qi), ga, wa, gerr, werr)
	}
	for _, a := range kept {
		if err := sameResults(a.got, a.ref); err != nil {
			t.Fatalf("%s: %s changed after later calls: %v", name, a.op, err)
		}
	}
}

// TestEngineConcurrentWalks shares one engine among several goroutines
// while another re-instruments it: every Retrieve, RetrieveN and
// RetrieveAll must return exactly what a private engine returns for the
// same request. Each walk counts into the one bundle it loaded, so the
// bundles the shared engine counted into — the one NewEngine gave it and
// every one Instrument installed — must add up to one private engine's
// Stats per caller: a racing Instrument loses no walk's counts and
// counts none twice. The private engine's Stats must equal the
// reference engine's, so a count the engine skips fails too. Run it
// with -race.
func TestEngineConcurrentWalks(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	cb, reg := tieCaseBase(r)
	reqs := make([]casebase.Request, 16)
	for i := range reqs {
		reqs[i] = tieRequest(r, cb, reg)
	}
	walkAll := func(e retriever) [][]Result {
		var out [][]Result
		for _, req := range reqs {
			best, _ := e.Retrieve(req)
			top, _ := e.RetrieveN(req, 3)
			all, _ := e.RetrieveAll(req)
			out = append(out, []Result{best}, top, all)
		}
		return out
	}
	private, ref := NewEngine(cb, Options{}), newRefEngine(cb, Options{})
	want := walkAll(private)
	walkAll(ref)
	ps := private.Stats()
	if ps != ref.Stats() {
		t.Fatalf("private stats %+v, reference %+v", ps, ref.Stats())
	}
	shared := NewEngine(cb, Options{})
	bundles := []*Metrics{shared.met.Load()}
	const callers = 4
	stop := make(chan struct{})
	instrumented := make(chan struct{})
	go func() {
		defer close(instrumented)
		for {
			select {
			case <-stop:
				return
			default:
				m := NewMetrics(nil)
				bundles = append(bundles, m)
				shared.Instrument(m)
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, got := range walkAll(shared) {
				if err := sameResults(got, want[i]); err != nil {
					t.Errorf("caller %d answer %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-instrumented
	var sum Stats
	for _, m := range bundles {
		st := bundleStats(m)
		sum.Retrievals += st.Retrievals
		sum.ImplsScored += st.ImplsScored
		sum.AttrsCompared += st.AttrsCompared
		sum.BelowThreshold += st.BelowThreshold
	}
	if want := (Stats{callers * ps.Retrievals, callers * ps.ImplsScored, callers * ps.AttrsCompared, callers * ps.BelowThreshold}); sum != want {
		t.Errorf("%d bundles sum to %+v, want %d× %+v = %+v", len(bundles), sum, callers, ps, want)
	}
}

// TestRetrieveAllPrefixMatchesRetrieveN is the differential test for
// degrade-and-retry's candidate list: on seeded random case bases of
// every shape in caseBaseGens, requests and depths, the first n results
// of RetrieveAll must be what a threshold-free RetrieveN(req, n)
// returns, rank by rank, with the same identity and similarity bits,
// the same error, and the same Stats delta.
func TestRetrieveAllPrefixMatchesRetrieveN(t *testing.T) {
	for _, g := range caseBaseGens {
		t.Run(g.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(32))
			for trial := 0; trial < 40; trial++ {
				cb, reg := g.cb(r)
				e := NewEngine(cb, Options{})
				for q := 0; q < 8; q++ {
					name := fmt.Sprintf("trial %d req %d", trial, q)
					prefixMatchesRetrieveN(t, name, e, g.req(r, cb, reg), 1+r.Intn(14))
				}
			}
		})
	}
}

// prefixMatchesRetrieveN runs RetrieveN(req, n) and RetrieveAll(req) on
// e and fails unless RetrieveAll's first n results, its error and its
// Stats delta are RetrieveN's.
func prefixMatchesRetrieveN(t *testing.T, name string, e *Engine, req casebase.Request, n int) {
	t.Helper()
	name = fmt.Sprintf("%s n %d", name, n)
	before := e.Stats()
	list, lerr := e.RetrieveN(req, n)
	mid := e.Stats()
	all, aerr := e.RetrieveAll(req)
	after := e.Stats()
	if err := sameError(aerr, lerr); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if mid.Retrievals-before.Retrievals != after.Retrievals-mid.Retrievals ||
		mid.ImplsScored-before.ImplsScored != after.ImplsScored-mid.ImplsScored ||
		mid.AttrsCompared-before.AttrsCompared != after.AttrsCompared-mid.AttrsCompared ||
		mid.BelowThreshold-before.BelowThreshold != after.BelowThreshold-mid.BelowThreshold {
		t.Fatalf("%s: stats delta %+v -> %+v -> %+v", name, before, mid, after)
	}
	prefix := all[:min(n, len(all))]
	if len(prefix) != len(list) {
		t.Fatalf("%s: %d-result prefix vs %d results", name, len(prefix), len(list))
	}
	for i, a := range prefix {
		b := list[i]
		if a.Type != b.Type || a.Impl != b.Impl || a.Target != b.Target || a.Name != b.Name ||
			math.Float64bits(a.Similarity) != math.Float64bits(b.Similarity) {
			t.Fatalf("%s: rank %d: %+v vs %+v", name, i, a, b)
		}
	}
}

// genericLinear and genericWeightedSum are eq. (1) and eq. (2) under
// types NewEngine does not recognise: the same arithmetic, scored
// through the measure interfaces one variant at a time.
type genericLinear struct{ similarity.Linear }

type genericWeightedSum struct{ similarity.WeightedSum }

// genericOptions returns the default measures in their generic wrappers.
func genericOptions(th float64) Options {
	return Options{Local: genericLinear{}, Amalgamation: genericWeightedSum{}, Threshold: th}
}

// TestColumnKernelMatchesGenericScorer is the differential test for
// the column kernel: on seeded random case bases of every shape in
// caseBaseGens, rich in ties, missing attributes, zero or unnormalized
// weights, invalid requests and values on the bounds of 16-bit ranges,
// an engine with the default measures (scored column by column) and one
// with the same measures in wrappers (scored variant by variant) must
// give the same Retrieve and RetrieveN answers at every depth, with
// similarity bits equal, the same errors and ErrNoMatch.Best bits, and
// the same Stats after every call.
func TestColumnKernelMatchesGenericScorer(t *testing.T) {
	trials := 60
	if testing.Short() || raceEnabled {
		trials = 15
	}
	for _, g := range caseBaseGens {
		t.Run(g.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(35))
			for trial := 0; trial < trials; trial++ {
				cb, reg := g.cb(r)
				reqs := make([]casebase.Request, 16)
				for i := range reqs {
					reqs[i] = g.req(r, cb, reg)
				}
				for _, th := range []float64{0, 0.5, 1} {
					kern, gen := NewEngine(cb, Options{Threshold: th}), NewEngine(cb, genericOptions(th))
					if !kern.columns || gen.columns {
						t.Fatalf("column kernel chosen: default measures %v, wrapped %v", kern.columns, gen.columns)
					}
					for qi, req := range reqs {
						name := fmt.Sprintf("trial %d threshold %v req %d", trial, th, qi)
						kernelMatchesGeneric(t, name, kern, gen, req)
					}
				}
			}
		})
	}
}

// kernelMatchesGeneric fails unless kern and gen give req the same
// Retrieve answer and the same RetrieveN answer at every depth from 1
// to one past the type's variant count, with equal Stats after each
// call.
func kernelMatchesGeneric(t *testing.T, name string, kern, gen *Engine, req casebase.Request) {
	t.Helper()
	check := func(op string, got, want []Result, gerr, werr error) {
		t.Helper()
		if err := sameResults(got, want); err != nil {
			t.Fatalf("%s %s: %v", name, op, err)
		}
		if err := sameError(gerr, werr); err != nil {
			t.Fatalf("%s %s: %v", name, op, err)
		}
		if kern.Stats() != gen.Stats() {
			t.Fatalf("%s %s: stats %+v vs %+v", name, op, kern.Stats(), gen.Stats())
		}
	}
	got, gerr := kern.Retrieve(req)
	want, werr := gen.Retrieve(req)
	check("Retrieve", []Result{got}, []Result{want}, gerr, werr)
	depth := 1
	if ft, ok := kern.CaseBase().Type(req.Type); ok {
		depth = len(ft.Impls)
	}
	for n := 1; n <= depth+1; n++ {
		gl, gerr := kern.RetrieveN(req, n)
		wl, werr := gen.RetrieveN(req, n)
		check(fmt.Sprintf("RetrieveN(%d)", n), gl, wl, gerr, werr)
	}
}
