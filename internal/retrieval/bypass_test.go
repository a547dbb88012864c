package retrieval

import (
	"math"
	"math/rand"
	"testing"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/workload"
)

func TestTokenCacheRoundTrip(t *testing.T) {
	tc := NewTokenCache()
	req := casebase.PaperRequest()
	h := Hash(req)
	if _, ok := tc.Lookup(h, req); ok {
		t.Fatal("empty cache must miss")
	}
	tok := Token{Type: casebase.TypeFIREqualizer, Impl: 2, Similarity: 0.96}
	tc.Store(h, req, tok)
	got, ok := tc.Lookup(h, req)
	if !ok || got != tok {
		t.Fatalf("Lookup = %+v, %v", got, ok)
	}
	// The Signature adapters reach the same entry.
	if got, ok := tc.LookupSig(Signature(req)); !ok || got != tok {
		t.Fatalf("LookupSig = %+v, %v", got, ok)
	}
	tc.StoreSig(Signature(req), Token{Type: req.Type, Impl: 3})
	if got, _ := tc.Lookup(h, req); got.Impl != 3 {
		t.Errorf("StoreSig did not update the entry: %+v", got)
	}
	if tc.Len() != 1 {
		t.Errorf("Len = %d", tc.Len())
	}
	// The stored key is a copy: mutating the caller's request afterwards
	// must not move the entry.
	req.Constraints[0].Value++
	if _, ok := tc.Lookup(Hash(req), req); ok {
		t.Error("mutated request hit the original's token")
	}
}

func TestSignatureDistinguishesRequests(t *testing.T) {
	a := casebase.PaperRequest()
	b := casebase.NewRequest(casebase.TypeFIREqualizer,
		casebase.Constraint{ID: casebase.AttrBitwidth, Value: 8}, // differs
		casebase.Constraint{ID: casebase.AttrOutputMode, Value: 1},
		casebase.Constraint{ID: casebase.AttrSampleRate, Value: 40},
	).EqualWeights()
	if Signature(a) == Signature(b) {
		t.Error("different values must give different signatures")
	}
	// Same content, different construction order → same signature
	// (NewRequest sorts).
	c := casebase.NewRequest(casebase.TypeFIREqualizer,
		casebase.Constraint{ID: casebase.AttrSampleRate, Value: 40},
		casebase.Constraint{ID: casebase.AttrOutputMode, Value: 1},
		casebase.Constraint{ID: casebase.AttrBitwidth, Value: 16},
	).EqualWeights()
	if Signature(a) != Signature(c) || Hash(a) != Hash(c) || !SameRequest(a, c) {
		t.Error("order-insensitive requests must share a signature and a hash")
	}
	// Weight changes the signature: a reweighted request may retrieve
	// a different variant.
	d := a.NormalizeWeights()
	d.Constraints[0].Weight = 0.8
	d.Constraints[1].Weight = 0.1
	d.Constraints[2].Weight = 0.1
	if Signature(a) == Signature(d) || SameRequest(a, d) {
		t.Error("weights must participate in the signature")
	}
	// Weights compare by their bits: 0 and -0 are different keys.
	e := casebase.NewRequest(casebase.TypeFIREqualizer, casebase.Constraint{ID: casebase.AttrBitwidth, Value: 16})
	f := casebase.NewRequest(casebase.TypeFIREqualizer, casebase.Constraint{ID: casebase.AttrBitwidth, Value: 16, Weight: math.Copysign(0, -1)})
	if Signature(e) == Signature(f) || SameRequest(e, f) {
		t.Error("weights 0 and -0 must give different keys")
	}
}

// TestSignatureRoundTrip checks that parseSignature inverts Signature
// over generated requests, with random weights so the weight bits vary
// too, and that requests equal by SameRequest hash equal.
func TestSignatureRoundTrip(t *testing.T) {
	cb, reg, err := workload.GenCaseBase(workload.CaseBaseSpec{
		Types: 12, ImplsPerType: 4, AttrsPerImpl: 6, AttrUniverse: 9, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenRequests(cb, reg, workload.RequestStreamSpec{
		N: 400, ConstraintsPer: 5, RepeatFraction: 0.2, Seed: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	for i, req := range reqs {
		if i%2 == 1 {
			for k := range req.Constraints {
				req.Constraints[k].Weight = rng.Float64()
			}
		}
		got, ok := parseSignature(Signature(req))
		if !ok || !SameRequest(got, req) {
			t.Fatalf("request %d: parseSignature(%q) = %+v, %v", i, Signature(req), got, ok)
		}
		if Hash(got) != Hash(req) {
			t.Fatalf("request %d: equal requests hash %x and %x", i, Hash(got), Hash(req))
		}
	}
	for _, bad := range []string{"", "x1", "t", "t1|", "t1|2=3", "t1|2=3*", "t1|2*3=4", "t70000", "t1|2=3*g"} {
		if req, ok := parseSignature(bad); ok {
			t.Errorf("parseSignature(%q) = %+v, want failure", bad, req)
		}
	}
}

// TestLookupSetsReference checks that a hit marks its entry referenced,
// so it survives the next eviction, that a miss marks nothing, and that
// a probe does not allocate.
func TestLookupSetsReference(t *testing.T) {
	tc := NewTokenCache()
	a := casebase.PaperRequest()
	h := Hash(a)
	if _, ok := tc.Lookup(h, a); ok {
		t.Fatal("empty cache must miss")
	}
	tok := Token{Type: a.Type, Impl: 2, Similarity: 0.96}
	tc.Store(h, a, tok)
	fill(tc, 0, DefaultMaxTokens-1)
	// Missing probes for filler requests never stored mark nothing.
	for i := DefaultMaxTokens; i < DefaultMaxTokens+8; i++ {
		if _, ok := tc.Lookup(Hash(clockReq(i)), clockReq(i)); ok {
			t.Fatalf("request %d hit before it was stored", i)
		}
	}
	if got, ok := tc.Lookup(h, a); !ok || got != tok {
		t.Fatalf("Lookup = %+v, %v", got, ok)
	}
	// a sits under the hand; its reference bit sends the hand on to the
	// first filler instead.
	fill(tc, DefaultMaxTokens-1, DefaultMaxTokens)
	if !has(tc, a) {
		t.Error("the referenced entry was evicted")
	}
	if has(tc, clockReq(0)) {
		t.Error("the first unreferenced entry survived past the cap")
	}
	if n := testing.AllocsPerRun(100, func() { tc.Lookup(h, a) }); n != 0 {
		t.Errorf("Lookup allocates %.1f times per call", n)
	}
}

// clockReq builds a distinct request per i (the cache never validates
// requests, so synthetic constraint values are fine).
func clockReq(i int) casebase.Request {
	return casebase.NewRequest(casebase.TypeFIREqualizer,
		casebase.Constraint{ID: casebase.AttrBitwidth, Value: attr.Value(i)},
	).EqualWeights()
}

// fill stores a type-1 token with impl i under clockReq(i) for each i
// in [from, to).
func fill(tc *TokenCache, from, to int) {
	for i := from; i < to; i++ {
		r := clockReq(i)
		tc.Store(Hash(r), r, Token{Type: 1, Impl: casebase.ImplID(i)})
	}
}

// has reports whether req has an entry, without touching its
// reference bit as Lookup would.
func has(tc *TokenCache, req casebase.Request) bool { return tc.find(Hash(req), req) >= 0 }

// TestTokenCacheClockEviction pins the CLOCK rules at the cap: a
// referenced entry survives the next eviction (and loses its bit doing
// so), exactly one unreferenced entry goes per store, and the cap holds.
func TestTokenCacheClockEviction(t *testing.T) {
	tc := NewTokenCache()
	fill(tc, 0, DefaultMaxTokens)
	if _, ok := tc.Lookup(Hash(clockReq(0)), clockReq(0)); !ok {
		t.Fatal("token 0 missing before eviction")
	}
	fill(tc, DefaultMaxTokens, DefaultMaxTokens+1)
	if tc.Len() != DefaultMaxTokens {
		t.Fatalf("Len = %d, want %d", tc.Len(), DefaultMaxTokens)
	}
	if has(tc, clockReq(1)) {
		t.Error("unreferenced entry 1 survived past the cap")
	}
	for _, i := range []int{0, 2, DefaultMaxTokens} {
		if !has(tc, clockReq(i)) {
			t.Errorf("entry %d evicted out of CLOCK order", i)
		}
	}
	// The hand cleared 0's bit on its way past, so once it comes round
	// again 0 goes like any other unreferenced entry.
	fill(tc, DefaultMaxTokens+1, 2*DefaultMaxTokens)
	if has(tc, clockReq(0)) {
		t.Error("entry 0 kept its reference bit through a full sweep")
	}
	// With every entry referenced, one sweep clears them all and the
	// store evicts exactly the entry under the hand.
	for i := DefaultMaxTokens; i < 2*DefaultMaxTokens; i++ {
		tc.Lookup(Hash(clockReq(i)), clockReq(i))
	}
	fill(tc, 2*DefaultMaxTokens, 2*DefaultMaxTokens+1)
	gone := 0
	for i := DefaultMaxTokens; i < 2*DefaultMaxTokens; i++ {
		if !has(tc, clockReq(i)) {
			gone++
		}
	}
	if gone != 1 || tc.Len() != DefaultMaxTokens {
		t.Errorf("a store past the cap evicted %d entries (Len %d), want exactly 1", gone, tc.Len())
	}
}

func TestTokenCacheStoreRefreshesRecency(t *testing.T) {
	tc := NewTokenCache()
	fill(tc, 0, DefaultMaxTokens)
	// Re-storing 0 (an updated pin) sets its reference bit, so the hand
	// passes it and evicts 1.
	r0 := clockReq(0)
	tc.Store(Hash(r0), r0, Token{Type: 1, Impl: 10})
	fill(tc, DefaultMaxTokens, DefaultMaxTokens+1)
	if got, ok := tc.Lookup(Hash(r0), r0); !ok || got.Impl != 10 {
		t.Errorf("re-stored entry = %+v, %v; want impl 10 present", got, ok)
	}
	if has(tc, clockReq(1)) {
		t.Error("unreferenced entry 1 survived past the re-stored one")
	}
}

// TestTokenCollisionNeverServes plants an entry whose stored hash is
// another request's hash: that request must miss, and storing it must
// give it an entry of its own beside the planted one.
func TestTokenCollisionNeverServes(t *testing.T) {
	tc := NewTokenCache()
	a, b := clockReq(1), clockReq(2)
	h := Hash(b)
	tokA, tokB := Token{Type: 1, Impl: 1}, Token{Type: 1, Impl: 2}
	tc.Store(h, a, tokA)
	if got, ok := tc.Lookup(h, b); ok {
		t.Fatalf("a colliding request was served %+v", got)
	}
	tc.Store(h, b, tokB)
	if got, ok := tc.Lookup(h, a); !ok || got != tokA {
		t.Errorf("planted entry = %+v, %v", got, ok)
	}
	if got, ok := tc.Lookup(h, b); !ok || got != tokB {
		t.Errorf("colliding entry = %+v, %v", got, ok)
	}
	if tc.Len() != 2 {
		t.Errorf("Len = %d, want 2", tc.Len())
	}
}
