package retrieval

import (
	"math"
	"math/bits"
	"strconv"
	"strings"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
)

// DefaultMaxTokens is the fixed retention cap of every TokenCache.
// Tokens are small, but the batching service layer deduplicates on
// requests drawn from an open-ended space (every distinct constraint
// vector is a new key), so an uncapped cache grows linearly with
// workload diversity. The cap bounds it to the hot working set; colder
// requests are evicted by the CLOCK hand and simply pay retrieval
// again: the cap bounds steady-state footprint, not peak correctness.
const DefaultMaxTokens = 4096

// Token is the paper's bypass token (§3): "data on the previous selection
// which can be reused at repeated function calls so that only an
// availability check on the function and its allocated resources has to
// be done". It holds the answer a walk gave for a request, so a hit
// serves that answer without reading the tree again.
type Token struct {
	Type       casebase.TypeID
	Impl       casebase.ImplID
	Target     casebase.Target
	Name       string
	Similarity float64
}

// Result returns the walk's answer the token holds, with nil Locals as
// Retrieve returns it.
func (t Token) Result() Result {
	return Result{Type: t.Type, Impl: t.Impl, Target: t.Target, Name: t.Name, Similarity: t.Similarity}
}

// Hash is the 64-bit token key of a request: a hash over exactly the
// fields Signature writes, in its order — the type, then each
// constraint's ID, value and weight bits. Requests with equal
// signatures hash equal; unequal ones may collide, which is why every
// TokenCache entry keeps its full request and a hit compares it.
func Hash(req casebase.Request) uint64 {
	h := mix(hashSeed, uint64(req.Type))
	for _, c := range req.Constraints {
		h = mix(h, uint64(c.ID)<<16|uint64(c.Value))
		h = mix(h, math.Float64bits(c.Weight))
	}
	return h
}

// hashSeed and hashMul are odd 64-bit constants (the golden ratio and
// wyhash's first secret). mix folds the high half of the 128-bit
// product into the low half, so every input bit reaches the low bits a
// table index uses.
const (
	hashSeed = 0x9e3779b97f4a7c15
	hashMul  = 0xa0761d6478bd642f
)

func mix(h, w uint64) uint64 {
	hi, lo := bits.Mul64(h^w, hashMul)
	return hi ^ lo
}

// SameRequest reports whether a and b have the same Signature: the same
// type and the same constraint list, weights compared by their bits.
func SameRequest(a, b casebase.Request) bool {
	if a.Type != b.Type || len(a.Constraints) != len(b.Constraints) {
		return false
	}
	for i, c := range a.Constraints {
		d := b.Constraints[i]
		if c.ID != d.ID || c.Value != d.Value || math.Float64bits(c.Weight) != math.Float64bits(d.Weight) {
			return false
		}
	}
	return true
}

// tokenEntry is one table entry: the key's hash, a copy of the full
// request it was stored under, the token and the CLOCK reference bit.
type tokenEntry struct {
	hash uint64
	req  casebase.Request // Constraints is the entry's own copy
	ref  bool
	tok  Token
}

// TokenCache maps requests to bypass tokens in one open-addressing
// table capped at DefaultMaxTokens. Entries sit in insertion order in a
// dense array; a linear-probing index of twice the entry count or more
// finds them by Hash, and a hit compares the entry's full request, so a
// hash collision never serves a token. Both arrays grow by doubling up
// to the cap. Nothing is evicted below the cap; at the cap a store
// evicts by CLOCK: the hand sweeps the entries, clearing reference bits
// (set by a hit or a re-store), and replaces the first entry whose bit
// is clear, reusing its constraint slice.
//
// It is a plain cache: its owner stores a token after a successful
// selection and empties the cache when the case base changes. Not safe
// for concurrent use; the allocation manager — and each serve shard —
// serializes access.
type TokenCache struct {
	entries []tokenEntry
	slots   []int32 // entry index + 1; 0 is an empty slot
	hand    int     // CLOCK hand over entries, used once they reach the cap
}

// NewTokenCache returns an empty cache capped at DefaultMaxTokens. It
// allocates nothing until the first store.
func NewTokenCache() *TokenCache { return &TokenCache{} }

// Signature renders a request as text: function type plus the sorted
// (ID, value, weight) constraint list, weights by their exact bit
// pattern. Two requests share a signature exactly when SameRequest
// holds, and so exactly when they share a token.
func Signature(req casebase.Request) string {
	dst := make([]byte, 0, 8+24*len(req.Constraints))
	dst = append(dst, 't')
	dst = strconv.AppendUint(dst, uint64(req.Type), 10)
	for _, c := range req.Constraints {
		dst = append(dst, '|')
		dst = strconv.AppendUint(dst, uint64(c.ID), 10)
		dst = append(dst, '=')
		dst = strconv.AppendUint(dst, uint64(c.Value), 10)
		dst = append(dst, '*')
		dst = strconv.AppendUint(dst, math.Float64bits(c.Weight), 16)
	}
	return string(dst)
}

// parseSignature is Signature's inverse; ok is false for a string that
// does not decode as one.
func parseSignature(sig string) (req casebase.Request, ok bool) {
	rest, ok := strings.CutPrefix(sig, "t")
	if !ok {
		return req, false
	}
	typ, rest, more := strings.Cut(rest, "|")
	t, err := strconv.ParseUint(typ, 10, 16)
	if err != nil {
		return req, false
	}
	req.Type = casebase.TypeID(t)
	for more {
		var c string
		c, rest, more = strings.Cut(rest, "|")
		id, c, ok1 := strings.Cut(c, "=")
		val, w, ok2 := strings.Cut(c, "*")
		i, err1 := strconv.ParseUint(id, 10, 16)
		v, err2 := strconv.ParseUint(val, 10, 16)
		b, err3 := strconv.ParseUint(w, 16, 64)
		if !ok1 || !ok2 || err1 != nil || err2 != nil || err3 != nil {
			return casebase.Request{}, false
		}
		req.Constraints = append(req.Constraints, casebase.Constraint{
			ID: attr.ID(i), Value: attr.Value(v), Weight: math.Float64frombits(b),
		})
	}
	return req, true
}

// Lookup returns the token stored for req, whose Hash is h, and marks
// it referenced. It does not allocate.
func (tc *TokenCache) Lookup(h uint64, req casebase.Request) (Token, bool) {
	i := tc.find(h, req)
	if i < 0 {
		return Token{}, false
	}
	e := &tc.entries[i]
	if !e.ref {
		e.ref = true
	}
	return e.tok, true
}

// Store caches t for req, whose Hash is h. Re-storing a request updates
// its token and marks it referenced; a new request takes a fresh entry
// below the cap, and the CLOCK victim's entry at it.
func (tc *TokenCache) Store(h uint64, req casebase.Request, t Token) {
	if i := tc.find(h, req); i >= 0 {
		e := &tc.entries[i]
		e.tok, e.ref = t, true
		return
	}
	var i int
	if len(tc.entries) < DefaultMaxTokens {
		if 2*(len(tc.entries)+1) > len(tc.slots) {
			tc.reindex(max(16, 2*len(tc.slots)))
		}
		i = len(tc.entries)
		tc.entries = append(tc.entries, tokenEntry{})
	} else {
		i = tc.victim()
		tc.unlink(i)
	}
	e := &tc.entries[i]
	e.hash, e.ref, e.tok = h, false, t
	e.req.Type = req.Type
	e.req.Constraints = append(e.req.Constraints[:0], req.Constraints...)
	tc.link(i)
}

// LookupSig is Lookup keyed by a Signature string, decoded back into
// its request. A string that does not decode misses.
func (tc *TokenCache) LookupSig(sig string) (Token, bool) {
	req, ok := parseSignature(sig)
	if !ok {
		return Token{}, false
	}
	return tc.Lookup(Hash(req), req)
}

// StoreSig is Store keyed by a Signature string, decoded back into its
// request. A string that does not decode is not stored.
func (tc *TokenCache) StoreSig(sig string, t Token) {
	if req, ok := parseSignature(sig); ok {
		tc.Store(Hash(req), req, t)
	}
}

// find returns the index of req's entry, or -1.
func (tc *TokenCache) find(h uint64, req casebase.Request) int {
	if len(tc.slots) == 0 {
		return -1
	}
	mask := uint64(len(tc.slots) - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		i := tc.slots[s] - 1
		if i < 0 {
			return -1
		}
		if e := &tc.entries[i]; e.hash == h && SameRequest(e.req, req) {
			return int(i)
		}
	}
}

// victim advances the CLOCK hand to the first entry whose reference bit
// is clear, clearing the bits it passes, and returns that entry.
func (tc *TokenCache) victim() int {
	for {
		i := tc.hand
		tc.hand = (tc.hand + 1) % len(tc.entries)
		e := &tc.entries[i]
		if !e.ref {
			return i
		}
		e.ref = false
	}
}

// link indexes entry i at the first free slot of its probe sequence.
func (tc *TokenCache) link(i int) {
	mask := uint64(len(tc.slots) - 1)
	s := tc.entries[i].hash & mask
	for tc.slots[s] != 0 {
		s = (s + 1) & mask
	}
	tc.slots[s] = int32(i + 1)
}

// unlink removes entry i from the index by backward-shift deletion, so
// every remaining entry stays reachable from its home slot without
// tombstones.
func (tc *TokenCache) unlink(i int) {
	mask := uint64(len(tc.slots) - 1)
	s := tc.entries[i].hash & mask
	for tc.slots[s] != int32(i+1) {
		s = (s + 1) & mask
	}
	for j := s; ; {
		j = (j + 1) & mask
		if tc.slots[j] == 0 {
			break
		}
		// Move the entry at j back into the hole at s unless its home
		// slot lies cyclically in (s, j].
		home := tc.entries[tc.slots[j]-1].hash & mask
		if (j-home)&mask < (j-s)&mask {
			continue
		}
		tc.slots[s] = tc.slots[j]
		s = j
	}
	tc.slots[s] = 0
}

// reindex rebuilds the index with n slots (a power of two).
func (tc *TokenCache) reindex(n int) {
	tc.slots = make([]int32, n)
	for i := range tc.entries {
		tc.link(i)
	}
}

// InvalidateAll empties the cache.
func (tc *TokenCache) InvalidateAll() { *tc = TokenCache{} }

// Len returns the number of live tokens.
func (tc *TokenCache) Len() int { return len(tc.entries) }
