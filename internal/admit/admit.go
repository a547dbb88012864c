// Package admit is the admission-control layer between a wire protocol
// and the serve.Service: per-client token-bucket rate limiting and
// per-shard circuit breaking, composed by a Gate.
//
// The paper's allocation manager negotiates QoS under scarcity — "an
// alternative implementation can be offered to the calling
// application" (§2) — and a serving frontend must make the same move
// one layer up: when demand exceeds what the platform can absorb, the
// system degrades *by contract* (typed rejections carrying retry
// hints), never by queuing without bound or timing out opaquely.
//
// Everything here runs on caller-supplied sim-time (device.Micros):
// buckets refill and breakers back off against timestamps threaded in
// by the caller, never against a wall clock, so an admission schedule
// replays bit-identically — the property the qosload lockstep harness
// pins. The daemon edge (cmd/qosd) is the only place wall time is
// mapped onto these timestamps.
//
// All types are safe for concurrent use.
package admit

import (
	"container/list"
	"fmt"
	"sync"

	"qosalloc/internal/device"
)

// Limiter defaults.
const (
	// DefaultRatePerSec refills each client bucket at this many
	// requests per second of sim time.
	DefaultRatePerSec = 1000
	// DefaultBurst is each client bucket's capacity.
	DefaultBurst = 100
	// DefaultMaxClients bounds the tracked-client table; the least
	// recently seen client is evicted beyond it.
	DefaultMaxClients = 4096
)

// microPerToken is the bucket's fixed-point scale: one token (a
// request, or a configuration byte) is one million micro-tokens, so a
// rate of R tokens per second adds exactly R micro-tokens per elapsed
// sim-microsecond — integer arithmetic, no drift, bit-identical replay.
const microPerToken = 1_000_000

// microBucket is a token bucket in micro-tokens, refilled from the sim
// timestamps passed to take. The request Limiter and the Ledger's
// configuration-bandwidth budget both use it.
type microBucket struct {
	micro int64         // current fill, 0..burst*microPerToken
	last  device.Micros // sim time of the last refill
}

// take refills the bucket up to now at rate tokens per second, capped
// at burst tokens, then spends n tokens. On a shortfall it spends
// nothing and returns the sim time until n tokens will have accrued. A
// stale now simply yields no refill.
func (b *microBucket) take(n, rate, burst int64, now device.Micros) (retry device.Micros, ok bool) {
	// Refill: elapsed µs × rate = accrued micro-tokens, exactly.
	if now > b.last {
		b.micro = min(b.micro+int64(now-b.last)*rate, burst*microPerToken)
		b.last = now
	}
	need := n * microPerToken
	if b.micro < need {
		return device.Micros((need - b.micro + rate - 1) / rate), false
	}
	b.micro -= need
	return 0, true
}

// ErrRateLimited is the typed per-client rejection: the client's
// token bucket is empty. RetryAfter is the sim time until one token
// has accrued at the configured rate.
type ErrRateLimited struct {
	Client     string
	RetryAfter device.Micros
}

func (e *ErrRateLimited) Error() string {
	return fmt.Sprintf("admit: client %q rate limited; retry after ~%d µs", e.Client, e.RetryAfter)
}

// LimiterConfig tunes the per-client buckets. The zero value gives the
// defaults above.
type LimiterConfig struct {
	// RatePerSec is the refill rate per client in tokens (requests)
	// per second of sim time.
	RatePerSec int64
	// Burst is the bucket capacity in tokens: how far a quiet client
	// may run ahead of its steady-state rate.
	Burst int64
	// MaxClients bounds the client table (LRU eviction). An evicted
	// client that returns starts with a full bucket again — the bound
	// trades that small generosity for a hard memory ceiling.
	MaxClients int
}

func (c LimiterConfig) withDefaults() LimiterConfig {
	if c.RatePerSec <= 0 {
		c.RatePerSec = DefaultRatePerSec
	}
	if c.Burst <= 0 {
		c.Burst = DefaultBurst
	}
	if c.MaxClients <= 0 {
		c.MaxClients = DefaultMaxClients
	}
	return c
}

// bucket is one client's token bucket.
type bucket struct {
	microBucket
	client string
	elem   *list.Element // position in the LRU list
}

// Limiter is the per-client token-bucket table. Buckets refill
// deterministically from the sim timestamps passed to Allow; clients
// are tracked up to MaxClients with least-recently-seen eviction.
type Limiter struct {
	mu      sync.Mutex
	cfg     LimiterConfig
	clients map[string]*bucket
	lru     *list.List // front = most recently seen
}

// NewLimiter returns a limiter with cfg (zero fields take defaults).
func NewLimiter(cfg LimiterConfig) *Limiter {
	return &Limiter{
		cfg:     cfg.withDefaults(),
		clients: make(map[string]*bucket),
		lru:     list.New(),
	}
}

// Clients returns how many clients are currently tracked.
func (l *Limiter) Clients() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.clients)
}

// Allow spends one token from client's bucket at sim time now. It
// returns nil on admission or a typed *ErrRateLimited whose RetryAfter
// says when one token will have accrued. Timestamps must not move
// backwards per client; a stale now simply yields no refill.
func (l *Limiter) Allow(client string, now device.Micros) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.clients[client]
	if b == nil {
		b = l.insert(client, now)
	}
	l.lru.MoveToFront(b.elem)
	if retry, ok := b.take(1, l.cfg.RatePerSec, l.cfg.Burst, now); !ok {
		return &ErrRateLimited{Client: client, RetryAfter: retry}
	}
	return nil
}

// insert adds a fresh full bucket for client, evicting the least
// recently seen client if the table is at its bound. Caller holds mu.
func (l *Limiter) insert(client string, now device.Micros) *bucket {
	if len(l.clients) >= l.cfg.MaxClients {
		oldest := l.lru.Back()
		evicted := l.lru.Remove(oldest).(*bucket)
		delete(l.clients, evicted.client)
	}
	b := &bucket{client: client, microBucket: microBucket{micro: l.cfg.Burst * microPerToken, last: now}}
	b.elem = l.lru.PushFront(b)
	l.clients[client] = b
	return b
}
