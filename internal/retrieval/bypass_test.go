package retrieval

import (
	"bytes"
	"math/rand"
	"testing"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/workload"
)

func TestTokenCacheRoundTrip(t *testing.T) {
	tc := NewTokenCache()
	req := casebase.PaperRequest()
	if _, ok := tc.Lookup(req); ok {
		t.Fatal("empty cache must miss")
	}
	tok := Token{Type: req.Type, Impl: 2, Similarity: 0.96}
	tc.Store(req, tok)
	got, ok := tc.Lookup(req)
	if !ok || got != tok {
		t.Fatalf("Lookup = %+v, %v", got, ok)
	}
	if tc.Len() != 1 {
		t.Errorf("Len = %d", tc.Len())
	}
	hits, misses := tc.Counters()
	if hits != 1 || misses != 1 {
		t.Errorf("counters = %d, %d", hits, misses)
	}
	if tc.HitRate() != 0.5 {
		t.Errorf("HitRate = %v", tc.HitRate())
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
	if Signature(a) != Signature(c) {
		t.Error("order-insensitive requests must share a signature")
	}
	// Weight changes the signature: a reweighted request may retrieve
	// a different variant.
	d := a.NormalizeWeights()
	d.Constraints[0].Weight = 0.8
	d.Constraints[1].Weight = 0.1
	d.Constraints[2].Weight = 0.1
	if Signature(a) == Signature(d) {
		t.Error("weights must participate in the signature")
	}
}

// TestAppendSignatureMatchesSignature checks the byte form against the
// string form over generated requests, with random weights so the
// weight bits vary too, appended both to an empty buffer and behind a
// prefix.
func TestAppendSignatureMatchesSignature(t *testing.T) {
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
	var buf [64]byte
	for i, req := range reqs {
		if i%2 == 1 {
			for k := range req.Constraints {
				req.Constraints[k].Weight = rng.Float64()
			}
		}
		want := Signature(req)
		if got := AppendSignature(buf[:0], req); string(got) != want {
			t.Fatalf("request %d: AppendSignature = %q, Signature = %q", i, got, want)
		}
		pre := []byte("prefix")
		if got := AppendSignature(pre, req); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("request %d: AppendSignature behind a prefix = %q", i, got)
		}
	}
}

// TestLookupKeyCountsHitsOnly checks the byte-keyed probe: it finds
// what StoreSig stored, counts a hit and refreshes recency like
// LookupSig, leaves a miss to the fallback lookup to count, and does
// not allocate.
func TestLookupKeyCountsHitsOnly(t *testing.T) {
	tc := NewTokenCache()
	tc.SetMaxTokens(2)
	a := casebase.PaperRequest()
	b := casebase.NewRequest(casebase.Type1DFFT,
		casebase.Constraint{ID: casebase.AttrBitwidth, Value: 16},
	).EqualWeights()
	key := AppendSignature(nil, a)
	if _, ok := tc.LookupKey(key); ok {
		t.Fatal("empty cache must miss")
	}
	if hits, misses := tc.Counters(); hits != 0 || misses != 0 {
		t.Fatalf("a missed probe counted: hits %d, misses %d", hits, misses)
	}
	tok := Token{Type: a.Type, Impl: 2, Similarity: 0.96}
	tc.StoreSig(Signature(a), tok)
	tc.Store(b, Token{Type: b.Type, Impl: 1})
	if got, ok := tc.LookupKey(key); !ok || got != tok {
		t.Fatalf("LookupKey = %+v, %v", got, ok)
	}
	if hits, misses := tc.Counters(); hits != 1 || misses != 0 {
		t.Fatalf("counters = %d, %d, want 1, 0", hits, misses)
	}
	// The probe made a the most recent entry, so a third store evicts b.
	tc.Store(casebase.NewRequest(casebase.Type1DFFT).EqualWeights(), Token{})
	if _, ok := tc.Lookup(a); !ok {
		t.Error("LookupKey did not refresh recency")
	}
	if n := testing.AllocsPerRun(100, func() { tc.LookupKey(key) }); n != 0 {
		t.Errorf("LookupKey allocates %.1f times per call", n)
	}
}

func TestInvalidateType(t *testing.T) {
	tc := NewTokenCache()
	reqA := casebase.PaperRequest()
	reqB := casebase.NewRequest(casebase.Type1DFFT,
		casebase.Constraint{ID: casebase.AttrBitwidth, Value: 16},
	).EqualWeights()
	tc.Store(reqA, Token{Type: reqA.Type, Impl: 2})
	tc.Store(reqB, Token{Type: reqB.Type, Impl: 1})
	if n := tc.InvalidateType(casebase.TypeFIREqualizer); n != 1 {
		t.Errorf("InvalidateType dropped %d, want 1", n)
	}
	if _, ok := tc.Lookup(reqA); ok {
		t.Error("invalidated token still present")
	}
	if _, ok := tc.Lookup(reqB); !ok {
		t.Error("unrelated token lost")
	}
	tc.InvalidateAll()
	if tc.Len() != 0 {
		t.Error("InvalidateAll left tokens behind")
	}
}

func TestHitRateEmpty(t *testing.T) {
	if NewTokenCache().HitRate() != 0 {
		t.Error("HitRate before lookups must be 0")
	}
}

// lruReq builds a distinct request signature per i (the cache never
// validates requests, so synthetic constraint values are fine).
func lruReq(i int) casebase.Request {
	return casebase.NewRequest(casebase.TypeFIREqualizer,
		casebase.Constraint{ID: casebase.AttrBitwidth, Value: attr.Value(i)},
	).EqualWeights()
}

func TestTokenCacheLRUEviction(t *testing.T) {
	tc := NewTokenCache()
	tc.SetMaxTokens(3)
	for i := 0; i < 3; i++ {
		tc.Store(lruReq(i), Token{Type: 1, Impl: casebase.ImplID(i)})
	}
	// Touch 0 so 1 becomes the LRU tail.
	if _, ok := tc.Lookup(lruReq(0)); !ok {
		t.Fatal("token 0 missing before eviction")
	}
	tc.Store(lruReq(3), Token{Type: 1, Impl: 3})
	if tc.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tc.Len())
	}
	if _, ok := tc.Lookup(lruReq(1)); ok {
		t.Error("LRU entry 1 survived past the cap")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := tc.Lookup(lruReq(i)); !ok {
			t.Errorf("entry %d evicted out of LRU order", i)
		}
	}
	if tc.Evictions() != 1 {
		t.Errorf("Evictions = %d, want 1", tc.Evictions())
	}
}

func TestTokenCacheSetMaxTokensShrinks(t *testing.T) {
	tc := NewTokenCache()
	for i := 0; i < 8; i++ {
		tc.Store(lruReq(i), Token{Type: 1, Impl: casebase.ImplID(i)})
	}
	tc.SetMaxTokens(2)
	if tc.Len() != 2 {
		t.Fatalf("Len = %d after shrink, want 2", tc.Len())
	}
	// The two most recently stored entries survive.
	for _, i := range []int{6, 7} {
		if _, ok := tc.Lookup(lruReq(i)); !ok {
			t.Errorf("recent entry %d lost in shrink", i)
		}
	}
	if tc.Evictions() != 6 {
		t.Errorf("Evictions = %d, want 6", tc.Evictions())
	}
	// n < 1 keeps no tokens.
	tc.SetMaxTokens(0)
	if tc.Len() != 0 {
		t.Errorf("Len = %d with cap 0, want 0", tc.Len())
	}
	tc.Store(lruReq(9), Token{Type: 1, Impl: 9})
	if tc.Len() != 0 {
		t.Error("cap-0 cache retained a stored token")
	}
}

func TestTokenCacheStoreRefreshesRecency(t *testing.T) {
	tc := NewTokenCache()
	tc.SetMaxTokens(2)
	tc.Store(lruReq(0), Token{Type: 1, Impl: 0})
	tc.Store(lruReq(1), Token{Type: 1, Impl: 1})
	// Re-storing 0 (an updated pin) must refresh it, making 1 the tail.
	tc.Store(lruReq(0), Token{Type: 1, Impl: 10})
	tc.Store(lruReq(2), Token{Type: 1, Impl: 2})
	if got, ok := tc.Lookup(lruReq(0)); !ok || got.Impl != 10 {
		t.Errorf("refreshed entry = %+v, %v; want impl 10 present", got, ok)
	}
	if _, ok := tc.Lookup(lruReq(1)); ok {
		t.Error("stale entry 1 survived past the refreshed one")
	}
	// InvalidateType keeps the LRU bookkeeping consistent.
	if n := tc.InvalidateType(1); n != 2 {
		t.Errorf("InvalidateType = %d, want 2", n)
	}
	if tc.Len() != 0 || tc.order.Len() != 0 {
		t.Errorf("map/list out of sync after invalidate: %d/%d", tc.Len(), tc.order.Len())
	}
}

func TestTokenCacheSetEpoch(t *testing.T) {
	tc := NewTokenCache()
	if tc.Epoch() != 0 {
		t.Fatalf("fresh cache epoch = %d, want 0", tc.Epoch())
	}
	tc.SetEpoch(1)
	req := casebase.PaperRequest()
	tc.Store(req, Token{Type: req.Type, Impl: 2, Similarity: 0.96})
	tc.Store(lruReq(7), Token{Type: 1, Impl: 1})

	// Re-binding to the same epoch is a no-op: tokens survive.
	if n := tc.SetEpoch(1); n != 0 {
		t.Fatalf("SetEpoch(same) dropped %d tokens", n)
	}
	if _, ok := tc.Lookup(req); !ok {
		t.Fatal("same-epoch rebind lost a token")
	}

	// A new epoch empties the cache: a token minted against epoch N
	// must never bypass retrieval against epoch N+1.
	if n := tc.SetEpoch(2); n != 2 {
		t.Fatalf("SetEpoch(new) dropped %d tokens, want 2", n)
	}
	if tc.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", tc.Epoch())
	}
	if tc.Len() != 0 {
		t.Fatalf("Len = %d after epoch change, want 0", tc.Len())
	}
	if _, ok := tc.Lookup(req); ok {
		t.Fatal("stale-epoch token still served")
	}
}
