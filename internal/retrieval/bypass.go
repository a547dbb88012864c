package retrieval

import (
	"container/list"
	"math"
	"strconv"

	"qosalloc/internal/casebase"
)

// DefaultMaxTokens is the fixed retention cap of every TokenCache.
// Tokens are small, but the batching service layer deduplicates on
// request signatures drawn from an open-ended space (every distinct
// constraint vector is a new key), so an uncapped cache grows linearly
// with workload diversity. The cap bounds it to the hot working set;
// colder signatures fall off the LRU tail and simply pay retrieval
// again: the cap bounds steady-state footprint, not peak correctness.
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
// retention capped at DefaultMaxTokens. It is a plain cache: its owner
// stores a token after a successful selection and invalidates it when
// the case base changes or the pinned implementation is evicted. Not
// safe for concurrent use; the allocation manager — and each serve
// shard — serializes access.
type TokenCache struct {
	tokens map[string]*list.Element // value: *tokenEntry
	order  *list.List               // front = most recently used
}

// NewTokenCache returns an empty cache capped at DefaultMaxTokens.
func NewTokenCache() *TokenCache {
	return &TokenCache{
		tokens: make(map[string]*list.Element),
		order:  list.New(),
	}
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

// LookupSig returns the token cached under a Signature, refreshing its
// recency.
func (tc *TokenCache) LookupSig(sig string) (Token, bool) { return tc.touch(tc.tokens[sig]) }

// LookupKey is LookupSig keyed by AppendSignature bytes; the key is
// only read, never retained, so the lookup does not allocate.
func (tc *TokenCache) LookupKey(key []byte) (Token, bool) { return tc.touch(tc.tokens[string(key)]) }

// touch makes a found entry the most recently used and returns its
// token; el is nil on a miss.
func (tc *TokenCache) touch(el *list.Element) (Token, bool) {
	if el == nil {
		return Token{}, false
	}
	tc.order.MoveToFront(el)
	return el.Value.(*tokenEntry).tok, true
}

// StoreSig caches a token under a Signature as the most recently used
// entry, dropping the LRU tail beyond DefaultMaxTokens.
func (tc *TokenCache) StoreSig(key string, t Token) {
	if el, ok := tc.tokens[key]; ok {
		el.Value.(*tokenEntry).tok = t
		tc.order.MoveToFront(el)
		return
	}
	tc.tokens[key] = tc.order.PushFront(&tokenEntry{key: key, tok: t})
	if tc.order.Len() > DefaultMaxTokens {
		back := tc.order.Back()
		tc.order.Remove(back)
		delete(tc.tokens, back.Value.(*tokenEntry).key)
	}
}

// InvalidateType drops every token pinned to function type t — the
// correct response when t's implementation sub-tree is updated at run
// time (the paper's future-work dynamic case-base update).
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

// Len returns the number of live tokens.
func (tc *TokenCache) Len() int { return tc.order.Len() }
