package retrieval

import (
	"container/list"
	"math"
	"strconv"

	"qosalloc/internal/casebase"
)

// DefaultMaxTokens is the retention cap of a TokenCache. Tokens are
// small, but the batching service layer deduplicates on request
// signatures drawn from an open-ended space (every distinct constraint
// vector is a new key), so an uncapped cache grows linearly with
// workload diversity. The cap bounds it to the hot working set; colder
// signatures fall off the LRU tail and simply pay retrieval again: the
// cap bounds steady-state footprint, not peak correctness.
const DefaultMaxTokens = 4096

// Token is the paper's bypass token (§3): "data on the previous selection
// which can be reused at repeated function calls so that only an
// availability check on the function and its allocated resources has to
// be done". It pins the implementation chosen for a request signature.
type Token struct {
	Type       casebase.TypeID
	Impl       casebase.ImplID
	Similarity float64
}

// tokenEntry is one LRU node: the signature key plus its token.
type tokenEntry struct {
	key string
	tok Token
}

// TokenCache maps request signatures to bypass tokens with LRU
// retention bounded by SetMaxTokens (DefaultMaxTokens initially). It is
// a plain cache: the allocation manager stores a token after a
// successful placement and invalidates it when the case base changes or
// the pinned implementation is evicted. Not safe for concurrent use;
// the allocation manager — and each serve shard — serializes access.
type TokenCache struct {
	tokens    map[string]*list.Element // value: *tokenEntry
	order     *list.List               // front = most recently used
	max       int
	epoch     uint64 // case-base epoch the live tokens were minted against
	hits      int
	misses    int
	evictions int
}

// NewTokenCache returns an empty cache capped at DefaultMaxTokens.
func NewTokenCache() *TokenCache {
	return &TokenCache{
		tokens: make(map[string]*list.Element),
		order:  list.New(),
		max:    DefaultMaxTokens,
	}
}

// SetMaxTokens bounds the cache to n tokens, evicting the least recently
// used beyond it (n < 1 keeps no tokens: every Store is immediately
// evicted, every Lookup misses).
func (tc *TokenCache) SetMaxTokens(n int) {
	if n < 0 {
		n = 0
	}
	tc.max = n
	for tc.order.Len() > n {
		tc.evictOldest()
	}
}

// evictOldest drops the LRU tail entry.
func (tc *TokenCache) evictOldest() {
	back := tc.order.Back()
	if back == nil {
		return
	}
	tc.order.Remove(back)
	delete(tc.tokens, back.Value.(*tokenEntry).key)
	tc.evictions++
}

// Signature derives the cache key from a request: function type plus the
// sorted (ID, value, weight) constraint list. Two requests with the same
// signature would retrieve the same implementation, so the retrieval can
// be bypassed for the second one. Weights participate via their exact
// bit pattern — the key sits on the hot batching path, so it is built
// with strconv appends, never fmt.
func Signature(req casebase.Request) string {
	return string(AppendSignature(make([]byte, 0, 8+24*len(req.Constraints)), req))
}

// AppendSignature appends req's Signature bytes to dst and returns the
// extended slice. A caller that keys a lookup in a buffer of its own
// (LookupKey) derives the signature without allocating.
func AppendSignature(dst []byte, req casebase.Request) []byte {
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
	return dst
}

// Lookup returns the token for req if one is cached, refreshing its
// recency.
func (tc *TokenCache) Lookup(req casebase.Request) (Token, bool) {
	return tc.LookupSig(Signature(req))
}

// LookupSig is Lookup keyed by a precomputed Signature — callers that
// already derived the signature (the serve batcher dedups on it) avoid
// recomputing it.
func (tc *TokenCache) LookupSig(sig string) (Token, bool) {
	el, ok := tc.tokens[sig]
	if !ok {
		tc.misses++
		return Token{}, false
	}
	tc.hits++
	tc.order.MoveToFront(el)
	return el.Value.(*tokenEntry).tok, true
}

// LookupKey is LookupSig keyed by AppendSignature bytes; the key is
// only read, never retained, so the lookup does not allocate. A hit is
// counted and refreshes recency like LookupSig. A miss is not counted:
// LookupKey is the probe in front of either a fallback that looks the
// same signature up again with LookupSig, which counts it, or a caller
// that resolves the miss itself and calls CountMiss, so each request is
// counted once.
func (tc *TokenCache) LookupKey(key []byte) (Token, bool) {
	el, ok := tc.tokens[string(key)]
	if !ok {
		return Token{}, false
	}
	tc.hits++
	tc.order.MoveToFront(el)
	return el.Value.(*tokenEntry).tok, true
}

// CountMiss counts a miss that LookupKey saw and its caller resolved
// without a LookupSig.
func (tc *TokenCache) CountMiss() { tc.misses++ }

// Store caches a token for req as the most recently used entry, evicting
// the LRU tail when the cap is exceeded.
func (tc *TokenCache) Store(req casebase.Request, t Token) {
	tc.StoreSig(Signature(req), t)
}

// StoreSig is Store keyed by a precomputed Signature.
func (tc *TokenCache) StoreSig(key string, t Token) {
	if el, ok := tc.tokens[key]; ok {
		el.Value.(*tokenEntry).tok = t
		tc.order.MoveToFront(el)
		return
	}
	tc.tokens[key] = tc.order.PushFront(&tokenEntry{key: key, tok: t})
	for tc.order.Len() > tc.max {
		tc.evictOldest()
	}
}

// InvalidateType drops every token pinned to function type t — the
// correct response when t's implementation sub-tree is updated at run
// time (the paper's future-work dynamic case-base update). Invalidations
// are not counted as evictions.
func (tc *TokenCache) InvalidateType(t casebase.TypeID) int {
	n := 0
	var next *list.Element
	for el := tc.order.Front(); el != nil; el = next {
		next = el.Next()
		ent := el.Value.(*tokenEntry)
		if ent.tok.Type == t {
			tc.order.Remove(el)
			delete(tc.tokens, ent.key)
			n++
		}
	}
	return n
}

// InvalidateAll empties the cache.
func (tc *TokenCache) InvalidateAll() {
	tc.tokens = make(map[string]*list.Element)
	tc.order.Init()
}

// Epoch returns the case-base epoch the live tokens were minted against
// (zero until SetEpoch is first called).
func (tc *TokenCache) Epoch() uint64 { return tc.epoch }

// SetEpoch binds the cache to a case-base epoch. Moving to a different
// epoch empties the cache first: a token minted against snapshot N must
// never bypass retrieval against snapshot N+1, because the pinned
// implementation may have been revised or retired in between. It
// returns how many stale tokens were dropped. Invalidations are not
// counted as evictions.
func (tc *TokenCache) SetEpoch(epoch uint64) int {
	if epoch == tc.epoch {
		return 0
	}
	n := tc.order.Len()
	tc.InvalidateAll()
	tc.epoch = epoch
	return n
}

// Len returns the number of live tokens.
func (tc *TokenCache) Len() int { return tc.order.Len() }

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (tc *TokenCache) HitRate() float64 {
	n := tc.hits + tc.misses
	if n == 0 {
		return 0
	}
	return float64(tc.hits) / float64(n)
}

// Counters returns the raw hit/miss counts.
func (tc *TokenCache) Counters() (hits, misses int) { return tc.hits, tc.misses }

// Evictions returns how many tokens the LRU cap has dropped.
func (tc *TokenCache) Evictions() int { return tc.evictions }
