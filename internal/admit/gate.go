package admit

import (
	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/obs"
)

// GateConfig composes the limiter and per-shard breaker tuning. Shards
// must match the serve.Service shard count so the gate's breaker
// routing (TypeID modulo shards) agrees with the service's.
type GateConfig struct {
	Shards  int
	Limiter LimiterConfig
	Breaker BreakerConfig
}

// Gate is the composed admission check run before a request reaches
// the service: the client's token bucket first, then the target
// shard's circuit breaker. Each admitted request must be settled with
// Record so half-open probes resolve and closed-state windows fill.
type Gate struct {
	limiter  *Limiter
	breakers []*Breaker
	met      *gateMetrics
}

// NewGate builds a gate with cfg, registering its qos_admit_* metrics
// on reg (nil yields a dangling, uninstrumented bundle). The trips
// series sums every shard breaker's own count.
func NewGate(cfg GateConfig, reg *obs.Registry) *Gate {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	g := &Gate{
		limiter: NewLimiter(cfg.Limiter),
		met:     newGateMetrics(reg, cfg.Shards),
	}
	for i := 0; i < cfg.Shards; i++ {
		b := NewBreaker(i, cfg.Breaker)
		reg.Attach("qos_admit_breaker_trips_total", "times any shard breaker tripped open", &b.trips)
		g.breakers = append(g.breakers, b)
	}
	return g
}

// Shard maps a request type to its breaker index, mirroring the
// serve.Service routing (TypeID modulo shard count).
func (g *Gate) Shard(t casebase.TypeID) int {
	return int(t) % len(g.breakers)
}

// Shards returns the breaker count.
func (g *Gate) Shards() int { return len(g.breakers) }

// Admit runs the full admission check for client's request to shard at
// sim time now: nil on admission (the caller now owes a Record call),
// *ErrRateLimited if the client's bucket is empty, *ErrBreakerOpen if
// the shard's breaker rejects.
func (g *Gate) Admit(client string, shard int, now device.Micros) error {
	if err := g.limiter.Allow(client, now); err != nil {
		g.met.rateLimited.Inc()
		return err
	}
	if err := g.breakers[shard].Allow(now); err != nil {
		g.met.breakerOpen.Inc()
		g.refreshState(shard, now)
		return err
	}
	g.met.allowed.Inc()
	g.refreshState(shard, now)
	return nil
}

// Record settles an admitted request's outcome at sim time now,
// feeding the shard breaker's rolling window (and, in half-open,
// deciding the probe).
func (g *Gate) Record(shard int, now device.Micros, failed bool) {
	g.breakers[shard].Record(now, failed)
	g.refreshState(shard, now)
}

// RecordFault injects an external failure signal (a fault-storm event
// on a device backing shard) into the shard breaker's window. Wire the
// fault injector's Subscribe hook here so storms trip breakers even
// between requests.
func (g *Gate) RecordFault(shard int, now device.Micros) {
	g.breakers[shard].RecordFault(now)
	g.refreshState(shard, now)
}

// Trips returns the total breaker trips across all shards.
func (g *Gate) Trips() int64 {
	var n int64
	for _, b := range g.breakers {
		n += b.Trips()
	}
	return n
}

// refreshState mirrors shard's breaker state into its gauge.
func (g *Gate) refreshState(shard int, now device.Micros) {
	g.met.breakerState[shard].Set(int64(g.breakers[shard].State(now)))
}
