package retrieval

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
)

// lruTokens is the map-and-list LRU the token table replaced, keyed by
// Signature strings. It is kept only as FuzzTokenCache's reference:
// below the cap the two must agree on every hit, miss and token.
type lruTokens struct {
	tokens map[string]*list.Element // value: *lruEntry
	order  *list.List               // front = most recently used
}

type lruEntry struct {
	key string
	tok Token
}

func newLRUTokens() *lruTokens {
	return &lruTokens{tokens: make(map[string]*list.Element), order: list.New()}
}

func (l *lruTokens) lookup(sig string) (Token, bool) {
	el := l.tokens[sig]
	if el == nil {
		return Token{}, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry).tok, true
}

func (l *lruTokens) store(sig string, t Token) {
	if el, ok := l.tokens[sig]; ok {
		el.Value.(*lruEntry).tok = t
		l.order.MoveToFront(el)
		return
	}
	l.tokens[sig] = l.order.PushFront(&lruEntry{key: sig, tok: t})
	if l.order.Len() > DefaultMaxTokens {
		back := l.order.Back()
		l.order.Remove(back)
		delete(l.tokens, back.Value.(*lruEntry).key)
	}
}

// fuzzWeights holds weights that differ only in their bits (0 and -0)
// beside ordinary ones.
var fuzzWeights = [8]float64{0, math.Copysign(0, -1), 0.5, 1, 1.0 / 3, 0.25, 2, math.Inf(1)}

// fuzzRequest decodes two bytes into one of a small universe of
// requests, so that a short stream repeats requests often.
func fuzzRequest(a, b byte) casebase.Request {
	req := casebase.Request{Type: casebase.TypeID(a % 4)}
	for k := 0; k < int(a>>2)%4; k++ {
		req.Constraints = append(req.Constraints, casebase.Constraint{
			ID:     attr.ID(k + 1),
			Value:  attr.Value(b>>(2*k)) & 3,
			Weight: fuzzWeights[(int(a>>4)+int(b>>6)+k)%len(fuzzWeights)],
		})
	}
	return req
}

// FuzzTokenCache drives the token table and the LRU reference with one
// decoded stream of lookups, stores and bulk fills.
// Below the cap both give the same hit/miss sequence and the same
// tokens. Once the reference has evicted, the eviction orders differ,
// so the table is held to the cap and to serving, on every hit, the
// token last stored for that exact request. After every bulk fill and
// at the end, every entry must be reachable through the index, and the
// index must hold nothing else. Every request must survive a Signature
// round trip.
func FuzzTokenCache(f *testing.F) {
	f.Add([]byte{2, 0x15, 0x40, 3, 0x15, 0x40, 2, 0x25, 0x41, 3, 0x15, 0x40, 1, 1, 0, 2, 0x15, 0x40})
	f.Add([]byte{2, 0x04, 0x00, 2, 0x14, 0x00, 3, 0x04, 0x00, 3, 0x14, 0x00, 0, 130, 0, 2, 0x04, 0x00, 3, 0x14, 0x00})
	f.Add([]byte{3, 0xfd, 0xff, 0, 255, 0, 3, 0xfd, 0xff, 2, 0xfd, 0xff, 1, 3, 0, 3, 0xfd, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		tc, ref := NewTokenCache(), newLRUTokens()
		last := make(map[string]Token) // every live store, never evicted
		full := false                  // the reference has evicted
		seq := 0                       // next bulk-fill request
		store := func(req casebase.Request, sig string, tok Token) {
			tc.Store(Hash(req), req, tok)
			if ref.order.Len() == DefaultMaxTokens && ref.tokens[sig] == nil {
				full = true
			}
			ref.store(sig, tok)
			last[sig] = tok
		}
		for ; len(data) >= 3; data = data[3:] {
			op, a, b := data[0], data[1], data[2]
			switch op % 4 {
			case 0: // bulk fill with fresh requests of type 9
				for n := int(a) * 32; n > 0; n-- {
					req := casebase.Request{Type: 9, Constraints: []casebase.Constraint{
						{ID: 1, Value: attr.Value(seq), Weight: 1},
						{ID: 2, Value: attr.Value(seq >> 16), Weight: float64(b)},
					}}
					seq++
					store(req, Signature(req), Token{Type: 9, Impl: casebase.ImplID(seq)})
				}
				checkIndex(t, tc)
			default: // a request: probe, and store on a miss or when op asks
				req := fuzzRequest(a, b)
				sig := Signature(req)
				if back, ok := parseSignature(sig); !ok || !SameRequest(back, req) {
					t.Fatalf("parseSignature(%q) = %+v, %v; want %+v", sig, back, ok, req)
				}
				got, hit := tc.Lookup(Hash(req), req)
				want, refHit := ref.lookup(sig)
				if !full && (hit != refHit || got != want) {
					t.Fatalf("%q: table %+v, %v; reference %+v, %v", sig, got, hit, want, refHit)
				}
				if hit && got != last[sig] {
					t.Fatalf("%q: hit served %+v, last stored %+v", sig, got, last[sig])
				}
				if !hit || op&4 != 0 {
					store(req, sig, Token{Type: req.Type, Impl: casebase.ImplID(op), Similarity: float64(b) / 255})
				}
			}
			if tc.Len() > DefaultMaxTokens {
				t.Fatalf("Len = %d past the cap %d", tc.Len(), DefaultMaxTokens)
			}
			if !full && tc.Len() != ref.order.Len() {
				t.Fatalf("Len = %d, reference %d", tc.Len(), ref.order.Len())
			}
		}
		checkIndex(t, tc)
	})
}

// checkIndex fails unless every entry of tc is found at its own index
// and the index links nothing but the entries.
func checkIndex(t *testing.T, tc *TokenCache) {
	t.Helper()
	for i, e := range tc.entries {
		if got := tc.find(e.hash, e.req); got != i {
			t.Fatalf("entry %d (%q) found at %d", i, Signature(e.req), got)
		}
	}
	linked := 0
	for _, v := range tc.slots {
		if v != 0 {
			linked++
		}
	}
	if linked != len(tc.entries) {
		t.Fatalf("index links %d slots for %d entries", linked, len(tc.entries))
	}
}

// byteSource is a rand.Source that reads its stream from fuzz bytes,
// one byte per draw, so the fuzzer steers every choice a generator
// makes. Past the end of the bytes it draws from a generator seeded by
// their hash, so a short input still yields a varied case base.
type byteSource struct {
	data []byte
	rest rand.Source
}

func newByteSource(data []byte) *byteSource {
	h := fnv.New64a()
	h.Write(data)
	return &byteSource{data: data, rest: rand.NewSource(int64(h.Sum64()))}
}

func (s *byteSource) Int63() int64 {
	if len(s.data) == 0 {
		return s.rest.Int63()
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int64(uint64(b) * 0x0101010101010101 >> 1) // b in every byte, so in the high and the low bits
}

func (s *byteSource) Seed(int64) {}

// FuzzEngineMatchesReference is the differential fuzz target for the
// float engine. The first byte picks a case-base shape from
// caseBaseGens (tie or edge); the rest drive the draws of its case base,
// one request and a threshold. The engine with the default measures
// (the column kernel and one-compare selection), the engine with the
// same measures in generic wrappers, and the sort-based reference must
// give the same Retrieve, the same RetrieveN at every n from 1 to one
// past the type's variant count, and the same RetrieveAll: results with
// equal similarity bits, the same errors and ErrNoMatch.Best bits, and
// equal Stats after every call.
func FuzzEngineMatchesReference(f *testing.F) {
	for _, seed := range []string{"\x00", "\x01", "\x00\x03\x01\x04\x01\x05", "\x01\x02\x07\x01\x08\x02\x08", "\x01\xff\xff\xff\xff"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := caseBaseGens[int(data[0])%len(caseBaseGens)]
		r := rand.New(newByteSource(data[1:]))
		cb, reg := g.cb(r)
		req := g.req(r, cb, reg)
		th := []float64{0, 0.5, 1, 1.5, r.Float64()}[r.Intn(5)]
		if all, err := newRefEngine(cb, Options{}).RetrieveAll(req); err == nil && r.Intn(2) == 0 {
			th = all[r.Intn(len(all))].Similarity // a threshold some variant meets exactly
		}
		names := []string{"columns", "generic", "reference"}
		engines := []retriever{NewEngine(cb, Options{Threshold: th}), NewEngine(cb, genericOptions(th)),
			newRefEngine(cb, Options{Threshold: th})}
		agree := func(op string, call func(retriever) ([]Result, error)) {
			t.Helper()
			want, werr := call(engines[0])
			for i, e := range engines[1:] {
				got, gerr := call(e)
				name := fmt.Sprintf("%s threshold %v: %s vs %s", op, th, names[i+1], names[0])
				if err := sameResults(got, want); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := sameError(gerr, werr); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if e.Stats() != engines[0].Stats() {
					t.Fatalf("%s: stats %+v vs %+v", name, e.Stats(), engines[0].Stats())
				}
			}
		}
		agree("Retrieve", func(e retriever) ([]Result, error) {
			res, err := e.Retrieve(req)
			return []Result{res}, err
		})
		depth := 1
		if ft, ok := cb.Type(req.Type); ok {
			depth = len(ft.Impls)
		}
		for n := 1; n <= depth+1; n++ {
			agree(fmt.Sprintf("RetrieveN(%d)", n), func(e retriever) ([]Result, error) { return e.RetrieveN(req, n) })
		}
		agree("RetrieveAll", func(e retriever) ([]Result, error) { return e.RetrieveAll(req) })
	})
}
