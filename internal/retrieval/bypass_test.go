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
	sig := Signature(casebase.PaperRequest())
	if _, ok := tc.LookupSig(sig); ok {
		t.Fatal("empty cache must miss")
	}
	tok := Token{Type: casebase.TypeFIREqualizer, Impl: 2, Similarity: 0.96}
	tc.StoreSig(sig, tok)
	got, ok := tc.LookupSig(sig)
	if !ok || got != tok {
		t.Fatalf("LookupSig = %+v, %v", got, ok)
	}
	if tc.Len() != 1 {
		t.Errorf("Len = %d", tc.Len())
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
// what StoreSig stored, refreshes recency like LookupSig, and does not
// allocate.
func TestLookupKeyCountsHitsOnly(t *testing.T) {
	tc := NewTokenCache()
	a := casebase.PaperRequest()
	key := AppendSignature(nil, a)
	if _, ok := tc.LookupKey(key); ok {
		t.Fatal("empty cache must miss")
	}
	tok := Token{Type: a.Type, Impl: 2, Similarity: 0.96}
	tc.StoreSig(Signature(a), tok)
	fill(tc, 0, DefaultMaxTokens-1)
	if got, ok := tc.LookupKey(key); !ok || got != tok {
		t.Fatalf("LookupKey = %+v, %v", got, ok)
	}
	// The probe made a the most recent entry, so one store past the cap
	// evicts the oldest filler instead.
	fill(tc, DefaultMaxTokens-1, DefaultMaxTokens)
	if _, ok := tc.LookupSig(Signature(a)); !ok {
		t.Error("LookupKey did not refresh recency")
	}
	if _, ok := tc.LookupSig(lruSig(0)); ok {
		t.Error("the least recent entry survived past the cap")
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
	tc.StoreSig(Signature(reqA), Token{Type: reqA.Type, Impl: 2})
	tc.StoreSig(Signature(reqB), Token{Type: reqB.Type, Impl: 1})
	if n := tc.InvalidateType(casebase.TypeFIREqualizer); n != 1 {
		t.Errorf("InvalidateType dropped %d, want 1", n)
	}
	if _, ok := tc.LookupSig(Signature(reqA)); ok {
		t.Error("invalidated token still present")
	}
	if _, ok := tc.LookupSig(Signature(reqB)); !ok {
		t.Error("unrelated token lost")
	}
	tc.InvalidateAll()
	if tc.Len() != 0 {
		t.Error("InvalidateAll left tokens behind")
	}
}

// lruSig builds a distinct request signature per i (the cache never
// validates requests, so synthetic constraint values are fine).
func lruSig(i int) string {
	return Signature(casebase.NewRequest(casebase.TypeFIREqualizer,
		casebase.Constraint{ID: casebase.AttrBitwidth, Value: attr.Value(i)},
	).EqualWeights())
}

// fill stores a type-1 token with impl i under lruSig(i) for each i in
// [from, to).
func fill(tc *TokenCache, from, to int) {
	for i := from; i < to; i++ {
		tc.StoreSig(lruSig(i), Token{Type: 1, Impl: casebase.ImplID(i)})
	}
}

func TestTokenCacheLRUEviction(t *testing.T) {
	tc := NewTokenCache()
	fill(tc, 0, DefaultMaxTokens)
	// Touch 0 so 1 becomes the LRU tail.
	if _, ok := tc.LookupSig(lruSig(0)); !ok {
		t.Fatal("token 0 missing before eviction")
	}
	fill(tc, DefaultMaxTokens, DefaultMaxTokens+1)
	if tc.Len() != DefaultMaxTokens {
		t.Fatalf("Len = %d, want %d", tc.Len(), DefaultMaxTokens)
	}
	if _, ok := tc.LookupSig(lruSig(1)); ok {
		t.Error("LRU entry 1 survived past the cap")
	}
	for _, i := range []int{0, 2, DefaultMaxTokens} {
		if _, ok := tc.LookupSig(lruSig(i)); !ok {
			t.Errorf("entry %d evicted out of LRU order", i)
		}
	}
}

func TestTokenCacheStoreRefreshesRecency(t *testing.T) {
	tc := NewTokenCache()
	fill(tc, 0, DefaultMaxTokens)
	// Re-storing 0 (an updated pin) must refresh it, making 1 the tail.
	tc.StoreSig(lruSig(0), Token{Type: 1, Impl: 10})
	fill(tc, DefaultMaxTokens, DefaultMaxTokens+1)
	if got, ok := tc.LookupSig(lruSig(0)); !ok || got.Impl != 10 {
		t.Errorf("refreshed entry = %+v, %v; want impl 10 present", got, ok)
	}
	if _, ok := tc.LookupSig(lruSig(1)); ok {
		t.Error("stale entry 1 survived past the refreshed one")
	}
	// InvalidateType keeps the LRU bookkeeping consistent.
	if n := tc.InvalidateType(1); n != DefaultMaxTokens {
		t.Errorf("InvalidateType = %d, want %d", n, DefaultMaxTokens)
	}
	if tc.Len() != 0 || len(tc.tokens) != 0 {
		t.Errorf("map/list out of sync after invalidate: %d/%d", len(tc.tokens), tc.Len())
	}
}
