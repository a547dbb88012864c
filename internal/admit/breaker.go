package admit

import (
	"fmt"
	"sync"

	"qosalloc/internal/device"
	"qosalloc/internal/obs"
)

// Breaker defaults.
const (
	// DefaultWindow is the rolling outcome window per breaker.
	DefaultWindow = 32
	// DefaultTripRatio trips the breaker when failures/window meet it.
	DefaultTripRatio = 0.5
	// DefaultMinSamples is the fewest window entries before the ratio
	// is consulted; below it the breaker never trips.
	DefaultMinSamples = 8
	// DefaultBackoff is the first open interval; it doubles on every
	// failed half-open probe up to DefaultMaxBackoff.
	DefaultBackoff device.Micros = 50_000
	// DefaultMaxBackoff caps the doubling.
	DefaultMaxBackoff device.Micros = 1_600_000
)

// State is a breaker's position in the trip/probe/recover cycle.
type State uint8

const (
	// Closed admits traffic while watching the failure ratio.
	Closed State = iota
	// Open rejects traffic until the backoff interval elapses.
	Open
	// HalfOpen admits exactly one probe; its outcome decides whether
	// the breaker re-closes or re-opens with a doubled backoff.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// ErrBreakerOpen is the typed rejection for a tripped breaker.
// RetryAfter is the sim time until the breaker will next half-open.
type ErrBreakerOpen struct {
	Shard      int
	RetryAfter device.Micros
}

func (e *ErrBreakerOpen) Error() string {
	return fmt.Sprintf("admit: shard %d breaker open; retry after ~%d µs", e.Shard, e.RetryAfter)
}

// BreakerConfig tunes one breaker. The zero value gives the defaults
// above.
type BreakerConfig struct {
	// Window is the rolling outcome window length.
	Window int
	// TripRatio is the failure fraction over the window that opens the
	// breaker.
	TripRatio float64
	// MinSamples gates tripping until the window holds that many
	// outcomes, so one early failure can't open a cold breaker.
	MinSamples int
	// Backoff is the first open interval; each failed probe doubles it
	// up to MaxBackoff. A successful probe resets it.
	Backoff    device.Micros
	MaxBackoff device.Micros
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.TripRatio <= 0 || c.TripRatio > 1 {
		c.TripRatio = DefaultTripRatio
	}
	if c.MinSamples <= 0 {
		c.MinSamples = DefaultMinSamples
	}
	if c.Backoff <= 0 {
		c.Backoff = DefaultBackoff
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = DefaultMaxBackoff
	}
	if c.MaxBackoff < c.Backoff {
		c.MaxBackoff = c.Backoff
	}
	return c
}

// Breaker is one shard's circuit breaker: closed → (failure ratio over
// a rolling window) → open → (backoff elapses) → half-open → one probe
// decides between re-closing and re-opening with doubled backoff.
// Outcomes and fault signals are recorded against caller-supplied sim
// timestamps.
type Breaker struct {
	mu    sync.Mutex
	cfg   BreakerConfig
	shard int

	state   State
	window  []bool // true = failure; ring of the last cfg.Window outcomes
	next    int    // ring cursor
	filled  int    // entries populated, 0..len(window)
	fails   int    // failures currently in the window
	openAt  device.Micros
	backoff device.Micros
	probing bool // a half-open probe is in flight

	trips obs.Counter // times opened; the gate attaches it
}

// NewBreaker returns a closed breaker for shard with cfg (zero fields
// take defaults).
func NewBreaker(shard int, cfg BreakerConfig) *Breaker {
	c := cfg.withDefaults()
	return &Breaker{
		cfg:     c,
		shard:   shard,
		window:  make([]bool, c.Window),
		backoff: c.Backoff,
	}
}

// State reports the breaker position at sim time now, promoting Open
// to HalfOpen once the backoff interval has elapsed.
func (b *Breaker) State(now device.Micros) State {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advance(now)
	return b.state
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() int64 { return b.trips.Load() }

// Allow asks whether a request may pass at sim time now. Closed always
// admits; HalfOpen admits exactly one in-flight probe; Open rejects
// with a typed *ErrBreakerOpen carrying the time until the next
// half-open. Every admitted request must be matched by a Record call.
func (b *Breaker) Allow(now device.Micros) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advance(now)
	switch b.state {
	case Closed:
		return nil
	case HalfOpen:
		if !b.probing {
			b.probing = true
			return nil
		}
		// A probe is already out; everyone else waits for its verdict.
		return &ErrBreakerOpen{Shard: b.shard, RetryAfter: 1}
	default: // Open
		retry := device.Micros(1)
		if due := b.openAt + b.backoff; due > now {
			retry = due - now
		}
		return &ErrBreakerOpen{Shard: b.shard, RetryAfter: retry}
	}
}

// Record reports the outcome of an admitted request at sim time now.
// In HalfOpen it settles the probe: success re-closes the breaker and
// resets the backoff; failure re-opens it with the backoff doubled.
func (b *Breaker) Record(now device.Micros, failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advance(now)
	if b.state == HalfOpen && b.probing {
		b.probing = false
		if failed {
			b.backoff = min(b.backoff*2, b.cfg.MaxBackoff)
			b.open(now)
		} else {
			b.reset()
		}
		return
	}
	if b.state != Closed {
		// Stragglers admitted before the trip; the window restarts on
		// re-close, so their outcomes carry no signal.
		return
	}
	b.push(failed)
	if b.filled >= b.cfg.MinSamples &&
		float64(b.fails) >= b.cfg.TripRatio*float64(b.filled) {
		b.open(now)
	}
}

// RecordFault injects an external failure signal — a fault-storm event
// on a device backing this shard — as a window sample, possibly
// tripping the breaker without any request traffic. No-op unless
// Closed.
func (b *Breaker) RecordFault(now device.Micros) {
	b.Record(now, true)
}

// advance promotes Open to HalfOpen once the backoff has elapsed.
// Caller holds mu.
func (b *Breaker) advance(now device.Micros) {
	if b.state == Open && now >= b.openAt+b.backoff {
		b.state = HalfOpen
		b.probing = false
	}
}

// open trips the breaker at now. Caller holds mu.
func (b *Breaker) open(now device.Micros) {
	b.state = Open
	b.openAt = now
	b.trips.Inc()
	b.clear()
}

// reset re-closes the breaker after a successful probe. Caller holds mu.
func (b *Breaker) reset() {
	b.state = Closed
	b.backoff = b.cfg.Backoff
	b.clear()
}

// clear empties the rolling window. Caller holds mu.
func (b *Breaker) clear() {
	for i := range b.window {
		b.window[i] = false
	}
	b.next, b.filled, b.fails = 0, 0, 0
}

// push records one outcome in the ring. Caller holds mu.
func (b *Breaker) push(failed bool) {
	if b.filled == len(b.window) {
		if b.window[b.next] {
			b.fails--
		}
	} else {
		b.filled++
	}
	b.window[b.next] = failed
	if failed {
		b.fails++
	}
	b.next = (b.next + 1) % len(b.window)
}
