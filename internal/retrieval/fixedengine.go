package retrieval

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"qosalloc/internal/casebase"
	"qosalloc/internal/fixed"
	"qosalloc/internal/memlist"
)

// FixedResult is a scored implementation in datapath precision.
type FixedResult struct {
	Type       casebase.TypeID
	Impl       casebase.ImplID
	Similarity fixed.Q15 // global similarity, Q1.15
}

// Float converts the fixed result to a Result-compatible similarity.
func (f FixedResult) Float() float64 { return f.Similarity.Float() }

// FixedEngine scores implementations with exactly the arithmetic of the
// fig. 7 datapath: 16-bit attribute values, Manhattan distance through
// the ABS block, multiplication by the pre-computed UQ16 reciprocal of
// (1+dmax) instead of division, Q15 weighted accumulation with
// saturation. It is the software twin of the hardware retrieval unit
// and must agree with it result for result (package hwsim tests enforce
// this).
//
// It reads its operands from the block-compacted memory layout
// (memlist.CompactCaseBase), the §5 "compacted representation of the
// attribute blocks", instead of walking the case-base tree:
//
//   - attribute IDs and values stream from two parallel arrays, so the
//     per-implementation scan is a resumable two-pointer merge with no
//     pointer dereference and no interleaved non-key words;
//   - supplemental reciprocals are resolved once at construction into a
//     per-pair array, eliminating the per-probe supplemental lookup;
//   - request weights convert to Q15 once per retrieval, not once per
//     implementation.
//
// The inner accumulation is branch-free in the datapath sense: a match
// mask selects between the weighted term and zero via array indexing,
// mirroring the hardware's multiplexed accumulator enable rather than a
// skipped instruction. A FixedEngine is immutable after construction and
// safe for concurrent use.
type FixedEngine struct {
	cb *casebase.CaseBase // request validation
	cc *memlist.CompactCaseBase
	// pairRecip[k] is the UQ16 reciprocal for attribute AttrIDs[k],
	// index-aligned with the packed attribute blocks: the design-time
	// table of fig. 4 (right), resolved per pair.
	pairRecip []fixed.UQ16
	// typeAt maps a function type ID to its index in TypeIDs/ImplOff.
	typeAt map[uint16]int
}

// NewFixedEngine compacts the case base and builds the kernel's
// constant tables. It fails when the compacted image exceeds the 16-bit
// word-address space, a case base the hardware cannot hold.
func NewFixedEngine(cb *casebase.CaseBase) (*FixedEngine, error) {
	cc, err := memlist.CompactFromCaseBase(cb)
	if err != nil {
		return nil, err
	}
	fe := &FixedEngine{
		cb:        cb,
		cc:        cc,
		pairRecip: make([]fixed.UQ16, len(cc.AttrIDs)),
		typeAt:    make(map[uint16]int, len(cc.TypeIDs)),
	}
	recipOf := make(map[uint16]fixed.UQ16, len(cc.SuppIDs))
	for i, id := range cc.SuppIDs {
		recipOf[id] = fixed.UQ16(cc.SuppRecip[i])
	}
	for k, id := range cc.AttrIDs {
		fe.pairRecip[k] = recipOf[id]
	}
	for t, id := range cc.TypeIDs {
		fe.typeAt[id] = t
	}
	return fe, nil
}

// fixedQuery is the once-per-retrieval request preparation: constraint
// IDs and values widened to the 16-bit bus domain, weights converted to
// Q15 with fixed.WeightsQ15, the conversion the memory-image encoder
// applies.
type fixedQuery struct {
	ids    []uint16
	vals   []uint16
	ws     []fixed.Q15
	sorted bool // IDs strictly ascending → resumable merge applies
}

func newFixedQuery(req casebase.Request) fixedQuery {
	n := len(req.Constraints)
	q := fixedQuery{ids: make([]uint16, n), vals: make([]uint16, n), sorted: true}
	fws := make([]float64, n)
	for i, c := range req.Constraints {
		q.ids[i] = uint16(c.ID)
		q.vals[i] = uint16(c.Value)
		fws[i] = c.Weight
		if i > 0 && q.ids[i] <= q.ids[i-1] {
			q.sorted = false
		}
	}
	q.ws = fixed.WeightsQ15(fws)
	return q
}

// extent validates req and prepares its query; the implementations of
// the requested type occupy [lo, hi) of the compacted ImplIDs block.
func (fe *FixedEngine) extent(req casebase.Request) (q fixedQuery, lo, hi int, err error) {
	if err := req.Validate(fe.cb); err != nil {
		return q, 0, 0, err
	}
	t, ok := fe.typeAt[uint16(req.Type)]
	if !ok {
		// Validate accepted the type against the case base, so the
		// compacted view must know it too; this is unreachable unless
		// the two drift apart.
		return q, 0, 0, fmt.Errorf("retrieval: type %d missing from compacted layout", req.Type)
	}
	return newFixedQuery(req), int(fe.cc.ImplOff[t]), int(fe.cc.ImplOff[t+1]), nil
}

// score computes the Q15 global similarity of entry im of the compacted
// ImplIDs block, whose attribute pairs occupy [lo, hi) of the packed
// blocks. The constraint loop runs in request order — the
// accumulation order the Q15 rounding remainder makes significant —
// while the attribute cursor advances monotonically through the extent
// (sorted requests never rescan; unsorted ones fall back to a bounded
// binary search per constraint). A miss (s_i = 0, "a missing attribute
// can be seen as unsatisfiable requirement", §3) accumulates a masked
// zero instead of branching around the accumulator.
func (fe *FixedEngine) score(im int, q *fixedQuery) fixed.Q15 {
	ids, vals, recips := fe.cc.AttrIDs, fe.cc.AttrVals, fe.pairRecip
	lo, hi := int(fe.cc.AttrOff[im]), int(fe.cc.AttrOff[im+1])
	var acc fixed.Q15
	j := lo
	for i := range q.ids {
		id := q.ids[i]
		if q.sorted {
			for j < hi && ids[j] < id {
				j++
			}
		} else {
			j = lo + sort.Search(hi-lo, func(k int) bool { return ids[lo+k] >= id })
		}
		m := 0
		var s fixed.Q15
		if j < hi && ids[j] == id {
			d := fixed.Dist(q.vals[i], vals[j])
			s = fixed.LocalSim(d, recips[j])
			m = 1
		}
		sel := [2]fixed.Q15{0, fixed.Mul(q.ws[i], s)}
		acc = fixed.AddSat(acc, sel[m])
	}
	return acc
}

// ScoreType validates the request and returns the Q15 similarity of
// every implementation of the requested type, in storage order: entry i
// scores the type's Impls[i].
func (fe *FixedEngine) ScoreType(req casebase.Request) ([]fixed.Q15, error) {
	q, lo, hi, err := fe.extent(req)
	if err != nil {
		return nil, err
	}
	qs := make([]fixed.Q15, hi-lo)
	for i := range qs {
		qs[i] = fe.score(lo+i, &q)
	}
	return qs, nil
}

// Retrieve runs the fig. 6 most-similar scan in datapath arithmetic:
// storage order, running maximum, strict > so the first of equals wins —
// the hardware's "S > SBest?" comparator.
func (fe *FixedEngine) Retrieve(req casebase.Request) (FixedResult, error) {
	q, lo, hi, err := fe.extent(req)
	if err != nil {
		return FixedResult{}, err
	}
	if lo == hi {
		return FixedResult{}, fmt.Errorf("retrieval: type %d has no implementations", req.Type)
	}
	best := FixedResult{Type: req.Type}
	for i := lo; i < hi; i++ {
		if s := fe.score(i, &q); i == lo || s > best.Similarity {
			best.Impl = casebase.ImplID(fe.cc.ImplIDs[i])
			best.Similarity = s
		}
	}
	return best, nil
}

// RetrieveN returns the n most similar implementations in datapath
// arithmetic, best first (ties by ascending implementation ID) — the
// n-best extension §5 envisions as the next hardware step.
func (fe *FixedEngine) RetrieveN(req casebase.Request, n int) ([]FixedResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("retrieval: n must be positive, got %d", n)
	}
	q, lo, hi, err := fe.extent(req)
	if err != nil {
		return nil, err
	}
	out := make([]FixedResult, hi-lo)
	for i := range out {
		out[i] = FixedResult{
			Type: req.Type, Impl: casebase.ImplID(fe.cc.ImplIDs[lo+i]),
			Similarity: fe.score(lo+i, &q),
		}
	}
	slices.SortStableFunc(out, func(a, b FixedResult) int {
		if c := cmp.Compare(b.Similarity, a.Similarity); c != 0 {
			return c
		}
		return cmp.Compare(a.Impl, b.Impl)
	})
	return out[:min(n, len(out))], nil
}
