package retrieval

import (
	"fmt"
	"slices"
	"sort"

	"qosalloc/internal/casebase"
	"qosalloc/internal/fixed"
	"qosalloc/internal/memlist"
)

// CompactEngine scores implementations over the block-compacted memory
// layout (memlist.CompactCaseBase) — the §5 "compacted representation
// of the attribute blocks" projected to roughly double retrieval
// speed. It computes exactly the FixedEngine arithmetic (fig. 7
// datapath: Manhattan distance, reciprocal multiply, Q15 weighted
// accumulation with saturation) but fetches operands from densely
// packed structure-of-arrays blocks instead of pointer-chased lists:
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
// skipped instruction. Bit-identity with FixedEngine is enforced by
// tests over random case bases, sorted and unsorted requests alike.
type CompactEngine struct {
	cb *casebase.CaseBase // request validation + impl metadata
	cc *memlist.CompactCaseBase
	// pairRecip[k] is the UQ16 reciprocal for attribute AttrIDs[k],
	// index-aligned with the packed attribute blocks. Attributes
	// absent from the supplemental table get 0, the same value the
	// FixedEngine map lookup yields.
	pairRecip []fixed.UQ16
	// typeAt maps a function type ID to its index in TypeIDs/ImplOff.
	typeAt map[uint16]int
}

// NewCompactEngine compacts the case base and builds the kernel's
// constant tables. It fails only when the case base exceeds the 16-bit
// word-address space of the compacted image.
func NewCompactEngine(cb *casebase.CaseBase) (*CompactEngine, error) {
	cc, err := memlist.CompactFromCaseBase(cb)
	if err != nil {
		return nil, err
	}
	ce := &CompactEngine{
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
		ce.pairRecip[k] = recipOf[id]
	}
	for t, id := range cc.TypeIDs {
		ce.typeAt[id] = t
	}
	return ce, nil
}

// Compact exposes the underlying compacted case base, e.g. for encoding
// the BRAM image the engine's constants were derived from.
func (ce *CompactEngine) Compact() *memlist.CompactCaseBase { return ce.cc }

// compactQuery is the once-per-retrieval request preparation: constraint
// IDs and values widened to the 16-bit bus domain, weights converted to
// Q15 with the same policy as the memory-image encoder. A query can be
// reloaded; its slices are reused across requests.
type compactQuery struct {
	ids    []uint16
	vals   []uint16
	fws    []float64 // float weights, the WeightsQ15 input
	ws     []fixed.Q15
	sorted bool // IDs strictly ascending → resumable merge applies
}

// load prepares q for req.
func (q *compactQuery) load(req casebase.Request) {
	n := len(req.Constraints)
	q.ids, q.vals, q.fws = resize(q.ids, n), resize(q.vals, n), resize(q.fws, n)
	q.sorted = true
	for i, c := range req.Constraints {
		q.ids[i] = uint16(c.ID)
		q.vals[i] = uint16(c.Value)
		q.fws[i] = c.Weight
		if i > 0 && q.ids[i] <= q.ids[i-1] {
			q.sorted = false
		}
	}
	q.ws = fixed.WeightsQ15(q.fws)
}

// scoreExtent computes the Q15 global similarity of the implementation
// whose attribute pairs occupy [lo, hi) in the packed blocks. The
// constraint loop runs in request order — the accumulation order the
// Q15 rounding remainder makes significant — while the attribute cursor
// advances monotonically through the extent (sorted requests never
// rescan; unsorted ones fall back to a bounded binary search per
// constraint). A miss accumulates a masked zero instead of branching
// around the accumulator.
func (ce *CompactEngine) scoreExtent(lo, hi int, q *compactQuery) fixed.Q15 {
	ids, vals, recips := ce.cc.AttrIDs, ce.cc.AttrVals, ce.pairRecip
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
// every implementation of the requested type, in storage order — the
// raw column the Engine integration zips with implementation metadata.
func (ce *CompactEngine) ScoreType(req casebase.Request) ([]fixed.Q15, error) {
	if err := req.Validate(ce.cb); err != nil {
		return nil, err
	}
	var q compactQuery
	return ce.scoreType(nil, &q, req)
}

// scoreType is ScoreType without the request validation, for callers
// (Engine's walk) that already validated: it loads q from req and
// appends the column to dst, so a caller owning both can reuse them.
func (ce *CompactEngine) scoreType(dst []fixed.Q15, q *compactQuery, req casebase.Request) ([]fixed.Q15, error) {
	t, ok := ce.typeAt[uint16(req.Type)]
	if !ok {
		// Validate accepted the type against the case base, so the
		// compacted view must know it too; this is unreachable unless
		// the two drift apart.
		return nil, fmt.Errorf("retrieval: type %d missing from compacted layout", req.Type)
	}
	q.load(req)
	iLo, iHi := int(ce.cc.ImplOff[t]), int(ce.cc.ImplOff[t+1])
	dst = slices.Grow(dst, iHi-iLo)
	for i := iLo; i < iHi; i++ {
		dst = append(dst, ce.scoreExtent(int(ce.cc.AttrOff[i]), int(ce.cc.AttrOff[i+1]), q))
	}
	return dst, nil
}

// Retrieve runs the fig. 6 most-similar scan over the compacted layout:
// storage order, running maximum, strict > so the first of equals wins
// — the same comparator semantics as FixedEngine.Retrieve, asserted
// bit-identical in tests.
func (ce *CompactEngine) Retrieve(req casebase.Request) (FixedResult, error) {
	if err := req.Validate(ce.cb); err != nil {
		return FixedResult{}, err
	}
	t, ok := ce.typeAt[uint16(req.Type)]
	if !ok {
		return FixedResult{}, fmt.Errorf("retrieval: type %d missing from compacted layout", req.Type)
	}
	var q compactQuery
	q.load(req)
	iLo, iHi := int(ce.cc.ImplOff[t]), int(ce.cc.ImplOff[t+1])
	if iLo == iHi {
		return FixedResult{}, fmt.Errorf("retrieval: type %d has no implementations", req.Type)
	}
	best := FixedResult{Type: req.Type}
	haveBest := false
	for i := iLo; i < iHi; i++ {
		s := ce.scoreExtent(int(ce.cc.AttrOff[i]), int(ce.cc.AttrOff[i+1]), &q)
		if !haveBest || s > best.Similarity {
			best.Impl = casebase.ImplID(ce.cc.ImplIDs[i])
			best.Similarity = s
			haveBest = true
		}
	}
	return best, nil
}

// RetrieveN returns the n most similar implementations, best first, ties
// by ascending implementation ID — FixedEngine.RetrieveN over the
// compacted layout.
func (ce *CompactEngine) RetrieveN(req casebase.Request, n int) ([]FixedResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("retrieval: n must be positive, got %d", n)
	}
	if err := req.Validate(ce.cb); err != nil {
		return nil, err
	}
	t, ok := ce.typeAt[uint16(req.Type)]
	if !ok {
		return nil, fmt.Errorf("retrieval: type %d missing from compacted layout", req.Type)
	}
	var q compactQuery
	q.load(req)
	iLo, iHi := int(ce.cc.ImplOff[t]), int(ce.cc.ImplOff[t+1])
	out := make([]FixedResult, 0, iHi-iLo)
	for i := iLo; i < iHi; i++ {
		out = append(out, FixedResult{
			Type: req.Type, Impl: casebase.ImplID(ce.cc.ImplIDs[i]),
			Similarity: ce.scoreExtent(int(ce.cc.AttrOff[i]), int(ce.cc.AttrOff[i+1]), &q),
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
