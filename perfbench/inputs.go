package main

import (
	"fmt"
	"math/bits"
	"sort"

	"qosalloc"
)

// Every input of a run derives from the --seed argument through the
// functions in this file. Op schedules are computed per op index
// instead of being stored, so a run of millions of ops keeps no
// per-op input in memory: the harness's footprint stays small beside
// the service it measures.

// mix is the splitmix64 finalizer: a fixed bijection on 64-bit words
// used to derive independent streams from (seed, tag, index).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive returns the value of stream tag at index i for a seed.
func derive(seed int64, tag, i uint64) uint64 {
	return mix(mix(uint64(seed)^mix(tag)) ^ i)
}

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 { r.s += 0x9e3779b97f4a7c15; return mix(r.s) }

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Stream tags, one per independent use of the seed.
const (
	tagCaseBase uint64 = iota + 1
	tagPerm
	tagReqBody
	tagColdPos
	tagHotPick
	tagChurnOp
	tagChurnArg
)

// perm is a seeded bijection on [0, space): a multiply–xorshift–
// multiply permutation of [0, 2^m) restricted to the domain by cycle
// walking. It scrambles request keys so consecutive keys do not map to
// neighbouring requests.
type perm struct {
	space, mask  uint64
	a, b, ai, bi uint64
	shift        uint
}

func newPerm(space uint64, seed int64) perm {
	m := uint(bits.Len64(space - 1))
	if m == 0 {
		m = 1
	}
	p := perm{space: space, mask: 1<<m - 1, shift: (m + 1) / 2}
	p.a = derive(seed, tagPerm, 0) | 1
	p.b = derive(seed, tagPerm, 1) | 1
	p.ai, p.bi = inverseOdd(p.a), inverseOdd(p.b)
	return p
}

// inverseOdd returns the inverse of an odd a modulo 2^64 (Newton).
func inverseOdd(a uint64) uint64 {
	inv := a
	for i := 0; i < 5; i++ {
		inv *= 2 - a*inv
	}
	return inv
}

// step is one application of the permutation of [0, 2^m). The xorshift
// by at least m/2 is its own inverse on m-bit words.
func (p perm) step(x uint64) uint64 {
	x = (x * p.a) & p.mask
	x ^= x >> p.shift
	return (x * p.b) & p.mask
}

func (p perm) unstep(x uint64) uint64 {
	x = (x * p.bi) & p.mask
	x ^= x >> p.shift
	return (x * p.ai) & p.mask
}

func (p perm) fwd(x uint64) uint64 {
	for x = p.step(x); x >= p.space; x = p.step(x) {
	}
	return x
}

func (p perm) inv(x uint64) uint64 {
	for x = p.unstep(x); x >= p.space; x = p.unstep(x) {
	}
	return x
}

// reqGen maps integer keys to valid, equal-weight requests, one to one:
// the scrambled key picks the function type and, for each constrained
// attribute, which of `cells` equal slices of its design range the value
// falls in; the rest of the request (which attributes, where inside the
// slice) is drawn from the seed. Distinct keys therefore give distinct
// requests — and distinct signatures — by construction, and key()
// recovers the key from a request, which is how the input-shape check
// proves a schedule never repeats a request without storing it.
type reqGen struct {
	types []qosalloc.TypeID
	attrs []qosalloc.AttrDef // attributes wide enough for `cells` slices
	k     int                // constraints per request
	cells uint64
	space uint64 // distinct keys: len(types) * cells^k
	p     perm
	seed  int64
}

// newReqGen sizes the generator for at least `keys` distinct requests
// of k constraints over cb.
func newReqGen(cb *qosalloc.CaseBase, k int, keys uint64, seed int64) (*reqGen, error) {
	g := &reqGen{k: k, seed: seed}
	for _, ft := range cb.Types() {
		g.types = append(g.types, ft.ID)
	}
	for g.cells = 2; ; g.cells *= 2 {
		g.space = uint64(len(g.types))
		for i := 0; i < k; i++ {
			g.space *= g.cells
		}
		if g.space >= keys {
			break
		}
		if g.cells >= 1<<12 {
			return nil, fmt.Errorf("request generator: %d keys exceed %d types × %d constraints", keys, len(g.types), k)
		}
	}
	reg := cb.Registry()
	for _, id := range reg.IDs() {
		d, _ := reg.Lookup(id)
		if uint64(d.Hi-d.Lo)+1 >= g.cells {
			g.attrs = append(g.attrs, d)
		}
	}
	sort.Slice(g.attrs, func(i, j int) bool { return g.attrs[i].ID < g.attrs[j].ID })
	if len(g.attrs) < k {
		return nil, fmt.Errorf("request generator: only %d attributes span %d values, need %d", len(g.attrs), g.cells, k)
	}
	if len(g.attrs) > 64 {
		g.attrs = g.attrs[:64]
	}
	g.p = newPerm(g.space, seed)
	return g, nil
}

// fill writes the request for key into buf (len >= k) and returns it;
// the request shares buf's storage.
func (g *reqGen) fill(key uint64, buf []qosalloc.Constraint) qosalloc.Request {
	y := g.p.fwd(key)
	t := g.types[y%uint64(len(g.types))]
	y /= uint64(len(g.types))
	r := rng{s: derive(g.seed, tagReqBody, key)}
	// Partial Fisher–Yates over attribute indices, then ascending ID
	// order (the order NewRequest sorts constraints into).
	var idx [64]uint8
	for i := range g.attrs {
		idx[i] = uint8(i)
	}
	for i := 0; i < g.k; i++ {
		j := i + r.intn(len(g.attrs)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	chosen := idx[:g.k]
	for i := 1; i < len(chosen); i++ { // insertion sort: no allocation
		for j := i; j > 0 && chosen[j] < chosen[j-1]; j-- {
			chosen[j], chosen[j-1] = chosen[j-1], chosen[j]
		}
	}
	w := 1.0 / float64(g.k)
	for j, ai := range chosen {
		d := g.attrs[ai]
		cell := (uint64(d.Hi-d.Lo) + 1) / g.cells
		digit := y % g.cells
		y /= g.cells
		v := uint64(d.Lo) + digit*cell + r.next()%cell
		buf[j] = qosalloc.Constraint{ID: d.ID, Value: qosalloc.AttrValue(v), Weight: w}
	}
	return qosalloc.Request{Type: t, Constraints: buf[:g.k]}
}

// request returns a freshly allocated request for key.
func (g *reqGen) request(key uint64) qosalloc.Request {
	return g.fill(key, make([]qosalloc.Constraint, g.k))
}

// key inverts fill; ok is false for a request fill cannot produce.
func (g *reqGen) key(req qosalloc.Request) (uint64, bool) {
	if len(req.Constraints) != g.k {
		return 0, false
	}
	ti := sort.Search(len(g.types), func(i int) bool { return g.types[i] >= req.Type })
	if ti == len(g.types) || g.types[ti] != req.Type {
		return 0, false
	}
	var acc uint64
	for j := g.k - 1; j >= 0; j-- {
		c := req.Constraints[j]
		ai := sort.Search(len(g.attrs), func(i int) bool { return g.attrs[i].ID >= c.ID })
		if ai == len(g.attrs) || g.attrs[ai].ID != c.ID {
			return 0, false
		}
		d := g.attrs[ai]
		cell := (uint64(d.Hi-d.Lo) + 1) / g.cells
		digit := (uint64(c.Value) - uint64(d.Lo)) / cell
		if digit >= g.cells {
			return 0, false
		}
		acc = acc*g.cells + digit
	}
	return g.p.inv(uint64(ti) + uint64(len(g.types))*acc), true
}

// hotMix is the hot_small op stream (also replayed by qosd_wire): ops
// come in blocks of coldEvery, each holding exactly one cold op — a
// request never seen before — at a seeded position; every other op
// repeats one of `hot` requests, picked uniformly. Cold op b uses key b
// and hot request h uses key cold+h, so no cold op can collide with
// the hot set.
type hotMix struct {
	seed int64
	n    uint64 // ops in the run
	hot  int
	cold uint64 // cold ops in the run: one per block
}

const coldEvery = 200 // one cold op per this many: a 0.5% cold share

func newHotMix(seed int64, ops uint64, hot int) hotMix {
	return hotMix{seed: seed, n: ops, hot: hot, cold: (ops + coldEvery - 1) / coldEvery}
}

// keys is the number of distinct requests the mix can draw.
func (m hotMix) keys() uint64 { return m.cold + uint64(m.hot) }

// at returns op i's request key and whether it is the cold op of its
// block.
func (m hotMix) at(i uint64) (key uint64, cold bool) {
	b := i / coldEvery
	if i%coldEvery == derive(m.seed, tagColdPos, b)%coldEvery {
		return b, true
	}
	return m.cold + derive(m.seed, tagHotPick, i)%uint64(m.hot), false
}

// repeatShare computes, from the generated schedule alone, the share of
// ops whose request already occurred earlier in the schedule. Cold keys
// are distinct by construction (one per block), so repeats are exactly
// the hot ops after each hot request's first occurrence.
func (m hotMix) repeatShare() float64 {
	seen := make([]bool, m.hot)
	var repeats uint64
	for i := uint64(0); i < m.n; i++ {
		key, cold := m.at(i)
		if cold {
			continue
		}
		if seen[key-m.cold] {
			repeats++
		}
		seen[key-m.cold] = true
	}
	return float64(repeats) / float64(m.n)
}

// checkDistinct proves that keys [0, n) give n distinct requests by
// decoding every generated request back to its key — O(1) memory, no
// signature set. It is how scan_large asserts that no request signature
// repeats within a run, and how hot_small asserts its cold ops are new.
func (g *reqGen) checkDistinct(n uint64) error {
	if n > g.space {
		return fmt.Errorf("schedule needs %d distinct requests, generator has %d", n, g.space)
	}
	buf := make([]qosalloc.Constraint, g.k)
	for i := uint64(0); i < n; i++ {
		req := g.fill(i, buf)
		if back, ok := g.key(req); !ok || back != i {
			return fmt.Errorf("request for key %d decodes to %d (ok=%v): keys collide", i, back, ok)
		}
	}
	return nil
}
