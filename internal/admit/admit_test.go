package admit

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/obs"
)

// --- Limiter -----------------------------------------------------------

func TestLimiterBurstThenRefill(t *testing.T) {
	l := NewLimiter(LimiterConfig{RatePerSec: 1000, Burst: 3})
	now := device.Micros(0)
	for i := 0; i < 3; i++ {
		if err := l.Allow("a", now); err != nil {
			t.Fatalf("burst request %d: %v", i, err)
		}
	}
	err := l.Allow("a", now)
	var rl *ErrRateLimited
	if !errors.As(err, &rl) {
		t.Fatalf("want *ErrRateLimited after burst, got %v", err)
	}
	// 1000 tokens/s = one per 1000 µs, bucket empty: exactly 1000 µs out.
	if rl.RetryAfter != 1000 {
		t.Fatalf("RetryAfter = %d, want 1000", rl.RetryAfter)
	}
	if rl.Client != "a" {
		t.Fatalf("Client = %q, want %q", rl.Client, "a")
	}
	// Advancing exactly RetryAfter must admit again — the hint is honest.
	if err := l.Allow("a", now+rl.RetryAfter); err != nil {
		t.Fatalf("after honoring RetryAfter: %v", err)
	}
	// A second token at the same instant must still refuse: the refill
	// interval restarts once the accrued token is spent.
	if err := l.Allow("a", now+rl.RetryAfter); err == nil {
		t.Fatal("second token inside one refill interval admitted")
	}
}

func TestLimiterIsolatesClients(t *testing.T) {
	l := NewLimiter(LimiterConfig{RatePerSec: 1, Burst: 1})
	if err := l.Allow("a", 0); err != nil {
		t.Fatalf("client a: %v", err)
	}
	if err := l.Allow("a", 0); err == nil {
		t.Fatal("client a's second request admitted from an empty bucket")
	}
	if err := l.Allow("b", 0); err != nil {
		t.Fatalf("client b must not share a's bucket: %v", err)
	}
}

func TestLimiterRefillCapsAtBurst(t *testing.T) {
	l := NewLimiter(LimiterConfig{RatePerSec: 1000, Burst: 2})
	if err := l.Allow("a", 0); err != nil {
		t.Fatal(err)
	}
	// A huge idle gap must not bank more than Burst tokens.
	now := device.Micros(3_600_000_000)
	for i := 0; i < 2; i++ {
		if err := l.Allow("a", now); err != nil {
			t.Fatalf("banked token %d: %v", i, err)
		}
	}
	if err := l.Allow("a", now); err == nil {
		t.Fatal("bucket banked beyond Burst across an idle gap")
	}
}

func TestLimiterEvictsLRU(t *testing.T) {
	l := NewLimiter(LimiterConfig{RatePerSec: 1, Burst: 1, MaxClients: 2})
	if err := l.Allow("a", 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Allow("b", 1); err != nil {
		t.Fatal(err)
	}
	l.Allow("a", 2) // refresh a; b is now least recently seen
	if err := l.Allow("c", 3); err != nil {
		t.Fatal(err)
	}
	if got := len(l.clients); got != 2 {
		t.Fatalf("tracked clients = %d, want 2", got)
	}
	// c survived (it just drained its only token), so it stays refused.
	if err := l.Allow("c", 3); err == nil {
		t.Fatal("surviving client c kept tokens it already spent")
	}
	// b was evicted, so it returns with a fresh full bucket (displacing
	// the now-least-recent a — the bound holds at 2).
	if err := l.Allow("b", 3); err != nil {
		t.Fatalf("evicted client must restart with a full bucket: %v", err)
	}
	if got := len(l.clients); got != 2 {
		t.Fatalf("tracked clients after re-insert = %d, want 2", got)
	}
}

func TestLimiterDeterministicReplay(t *testing.T) {
	run := func() []bool {
		l := NewLimiter(LimiterConfig{RatePerSec: 500, Burst: 4})
		var out []bool
		for i := 0; i < 200; i++ {
			client := fmt.Sprintf("c%d", i%3)
			now := device.Micros(i) * 700
			out = append(out, l.Allow(client, now) == nil)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at request %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// --- Breaker -----------------------------------------------------------

func TestBreakerTripsAndBacksOff(t *testing.T) {
	b := NewBreaker(3, BreakerConfig{Window: 8, TripRatio: 0.5, MinSamples: 4, Backoff: 100, MaxBackoff: 400})
	now := device.Micros(0)
	if got := b.State(now); got != Closed {
		t.Fatalf("initial state = %v, want closed", got)
	}
	// 4 failures in a row: ratio 1.0 ≥ 0.5 at MinSamples → trip.
	for i := 0; i < 4; i++ {
		if err := b.Allow(now); err != nil {
			t.Fatalf("closed breaker refused request %d: %v", i, err)
		}
		b.Record(now, true)
	}
	if got := b.State(now); got != Open {
		t.Fatalf("state after failure storm = %v, want open", got)
	}
	if got := b.Trips(); got != 1 {
		t.Fatalf("Trips = %d, want 1", got)
	}
	err := b.Allow(now + 50)
	var bo *ErrBreakerOpen
	if !errors.As(err, &bo) {
		t.Fatalf("open breaker returned %v, want *ErrBreakerOpen", err)
	}
	if bo.Shard != 3 {
		t.Fatalf("Shard = %d, want 3", bo.Shard)
	}
	if bo.RetryAfter != 50 {
		t.Fatalf("RetryAfter = %d, want the 50 µs left of the backoff", bo.RetryAfter)
	}

	// Backoff elapses → half-open admits exactly one probe.
	now += 100
	if got := b.State(now); got != HalfOpen {
		t.Fatalf("state after backoff = %v, want half-open", got)
	}
	if err := b.Allow(now); err != nil {
		t.Fatalf("half-open breaker refused the probe: %v", err)
	}
	if err := b.Allow(now); err == nil {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Probe fails → re-open with doubled backoff.
	b.Record(now, true)
	if got := b.State(now + 199); got != Open {
		t.Fatal("backoff did not double after a failed probe")
	}
	if got := b.State(now + 200); got != HalfOpen {
		t.Fatal("doubled backoff did not elapse at 200 µs")
	}
	// Successful probe → closed, backoff reset.
	if err := b.Allow(now + 200); err != nil {
		t.Fatal(err)
	}
	b.Record(now+200, false)
	if got := b.State(now + 200); got != Closed {
		t.Fatalf("state after good probe = %v, want closed", got)
	}
	if got := b.Trips(); got != 2 {
		t.Fatalf("Trips = %d, want 2", got)
	}
}

func TestBreakerBackoffCapped(t *testing.T) {
	b := NewBreaker(0, BreakerConfig{Window: 4, TripRatio: 0.5, MinSamples: 2, Backoff: 100, MaxBackoff: 250})
	now := device.Micros(0)
	trip := func() {
		for b.State(now) != Open {
			if err := b.Allow(now); err != nil {
				t.Fatalf("could not feed breaker at %d: %v", now, err)
			}
			b.Record(now, true)
		}
	}
	trip() // backoff 100
	for i := 0; i < 5; i++ {
		// Fail every probe: backoff 100 → 200 → 250 (capped) ...
		for b.State(now) != HalfOpen {
			now++
		}
		if err := b.Allow(now); err != nil {
			t.Fatal(err)
		}
		b.Record(now, true)
		if b.State(now+249) == HalfOpen && i >= 2 {
			t.Fatalf("probe %d: backoff fell below the 250 µs cap", i)
		}
		if got := b.State(now + 250); got != HalfOpen {
			t.Fatalf("probe %d: backoff exceeded the 250 µs cap (state %v)", i, got)
		}
	}
}

func TestBreakerMinSamplesGate(t *testing.T) {
	b := NewBreaker(0, BreakerConfig{Window: 16, TripRatio: 0.5, MinSamples: 8})
	for i := 0; i < 7; i++ {
		b.Record(0, true)
	}
	if got := b.State(0); got != Closed {
		t.Fatalf("breaker tripped on %d samples below MinSamples=8", 7)
	}
	b.Record(0, true)
	if got := b.State(0); got != Open {
		t.Fatal("breaker did not trip once MinSamples was reached")
	}
}

func TestBreakerRollingWindowForgets(t *testing.T) {
	b := NewBreaker(0, BreakerConfig{Window: 4, TripRatio: 0.75, MinSamples: 4})
	// Two failures, then a steady stream of successes: the ring must
	// push the failures out and never trip.
	b.Record(0, true)
	b.Record(0, true)
	for i := 0; i < 16; i++ {
		b.Record(0, false)
		if got := b.State(0); got != Closed {
			t.Fatalf("breaker tripped on a healthy stream at step %d", i)
		}
	}
}

func TestBreakerRecordFaultTripsWithoutTraffic(t *testing.T) {
	b := NewBreaker(0, BreakerConfig{Window: 8, TripRatio: 0.5, MinSamples: 4})
	for i := 0; i < 4; i++ {
		b.RecordFault(device.Micros(i))
	}
	if got := b.State(4); got != Open {
		t.Fatalf("fault-storm signals alone did not trip the breaker (state %v)", got)
	}
}

// --- Gate --------------------------------------------------------------

func TestGateComposesLimiterAndBreakers(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGate(GateConfig{
		Shards:  2,
		Limiter: LimiterConfig{RatePerSec: 1000, Burst: 2},
		Breaker: BreakerConfig{Window: 8, TripRatio: 0.5, MinSamples: 2, Backoff: 1000},
	}, reg)

	// Burst exhaustion → rate limited.
	if err := g.Admit("a", 0, 0); err != nil {
		t.Fatal(err)
	}
	g.Record(0, 0, false)
	if err := g.Admit("a", 0, 0); err != nil {
		t.Fatal(err)
	}
	g.Record(0, 0, false)
	var rl *ErrRateLimited
	if err := g.Admit("a", 0, 0); !errors.As(err, &rl) {
		t.Fatalf("want *ErrRateLimited, got %v", err)
	}

	// Trip shard 1's breaker via fault signals; shard 0 stays open for
	// business and the fresh client is not rate limited.
	g.RecordFault(1, 0)
	g.RecordFault(1, 0)
	var bo *ErrBreakerOpen
	if err := g.Admit("b", 1, 0); !errors.As(err, &bo) {
		t.Fatalf("want *ErrBreakerOpen on shard 1, got %v", err)
	}
	if err := g.Admit("b", 0, 0); err != nil {
		t.Fatalf("shard 0 must be unaffected by shard 1's breaker: %v", err)
	}
	g.Record(0, 0, false)

	if got := g.Trips(); got != 1 {
		t.Fatalf("Trips = %d, want 1", got)
	}
	if got := g.breakers[1].State(0); got != Open {
		t.Fatalf("shard 1 state = %v, want open", got)
	}

	for name, want := range map[string]int64{
		"qos_admit_allowed_total":          3,
		"qos_admit_rate_limited_total":     1,
		"qos_admit_breaker_rejected_total": 1,
		"qos_admit_breaker_trips_total":    1,
	} {
		got, ok := reg.CounterValue(name)
		if !ok || got != want {
			t.Errorf("%s = %d (present %v), want %d", name, got, ok, want)
		}
	}
}

func TestGateShardMirrorsServeRouting(t *testing.T) {
	g := NewGate(GateConfig{Shards: 4}, nil)
	for _, typ := range []casebase.TypeID{0, 1, 4, 7, 13} {
		if got, want := g.Shard(typ), int(typ)%4; got != want {
			t.Fatalf("Shard(%d) = %d, want %d", typ, got, want)
		}
	}
}

func TestGateNilRegistryAndConcurrency(t *testing.T) {
	g := NewGate(GateConfig{Shards: 3}, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := fmt.Sprintf("c%d", w)
			for i := 0; i < 200; i++ {
				now := device.Micros(i) * 10
				shard := i % g.Shards()
				if err := g.Admit(client, shard, now); err == nil {
					g.Record(shard, now, i%17 == 0)
				}
				if i%50 == 0 {
					g.RecordFault(shard, now)
					g.breakers[shard].State(now)
				}
			}
		}(w)
	}
	wg.Wait()
	g.Trips() // must not race or panic
}
