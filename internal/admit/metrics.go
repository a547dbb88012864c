package admit

import (
	"fmt"

	"qosalloc/internal/obs"
)

// gateMetrics is the admission layer's observability bundle. Like the
// serve and retrieval bundles it dangles over a nil registry, so the
// admission path never branches on whether observability is on.
type gateMetrics struct {
	allowed     *obs.Counter
	rateLimited *obs.Counter
	breakerOpen *obs.Counter

	breakerState []*obs.Gauge // per shard: 0 closed, 1 open, 2 half-open
}

// newGateMetrics registers the qos_admit_* series for n shards on reg
// (nil yields a dangling bundle).
func newGateMetrics(reg *obs.Registry, n int) *gateMetrics {
	m := &gateMetrics{
		allowed:     reg.Counter("qos_admit_allowed_total", "requests passed by the admission gate"),
		rateLimited: reg.Counter("qos_admit_rate_limited_total", "requests refused by a client token bucket"),
		breakerOpen: reg.Counter("qos_admit_breaker_rejected_total", "requests refused by an open or probing shard breaker"),
	}
	for i := 0; i < n; i++ {
		m.breakerState = append(m.breakerState, reg.Gauge(
			fmt.Sprintf("qos_admit_breaker_state{shard=%q}", fmt.Sprint(i)),
			"shard breaker position: 0 closed, 1 open, 2 half-open"))
	}
	return m
}
