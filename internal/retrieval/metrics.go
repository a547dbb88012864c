package retrieval

import "qosalloc/internal/obs"

// Metrics is the observability bundle of the retrieval layer. Every
// engine created by the package carries one; uninstrumented
// code gets a dangling bundle (built over a nil registry) whose atomic
// counters cost a few nanoseconds and surface nowhere — so the hot path
// never branches on "is observability on".
//
// The counter set mirrors the paper's cycle accounting: the hardware
// unit's run time is dominated by the per-attribute compare loop and the
// per-implementation scan (fig. 6), so attrs-compared and impls-scored
// are the software twins of those cycle drivers. The latency histogram
// is only fed when Now is set: deterministic sim drivers leave it nil
// (keeping golden counters exact) while real servers install a
// wall-clock source.
type Metrics struct {
	Retrievals     *obs.Counter
	ImplsScored    *obs.Counter
	AttrsCompared  *obs.Counter
	BelowThreshold *obs.Counter
	NoMatch        *obs.Counter

	// ImplsPerRetrieval observes the sub-list length scanned per
	// retrieval — the fig. 6 inner-loop trip count.
	ImplsPerRetrieval *obs.Histogram
	// Latency observes end-to-end Retrieve* time in Now's unit
	// (nanoseconds for the wall clock). Unfed while Now is nil.
	Latency *obs.Histogram
	// Now is the optional clock feeding Latency. Nil keeps the bundle
	// deterministic.
	Now func() int64
}

// NewMetrics registers the retrieval metric set on reg (nil yields a
// dangling bundle, valid but unexported anywhere).
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Retrievals:     reg.Counter("qos_retrieval_total", "retrieval runs started"),
		ImplsScored:    reg.Counter("qos_retrieval_impls_scored_total", "implementation variants scored"),
		AttrsCompared:  reg.Counter("qos_retrieval_attrs_compared_total", "attribute comparisons performed (eq. 1 evaluations)"),
		BelowThreshold: reg.Counter("qos_retrieval_below_threshold_total", "variants rejected by the similarity threshold"),
		NoMatch:        reg.Counter("qos_retrieval_no_match_total", "retrievals where nothing cleared the threshold"),
		ImplsPerRetrieval: reg.Histogram("qos_retrieval_impls_per_retrieval",
			"implementation sub-list length scanned per retrieval", obs.CountBuckets),
		Latency: reg.Histogram("qos_retrieval_latency",
			"end-to-end retrieval latency in the installed clock's unit", obs.LatencyBucketsMicros),
	}
}

// start returns the clock reading for a latency sample, or 0 when no
// clock is installed.
func (m *Metrics) start() int64 {
	if m.Now == nil {
		return 0
	}
	return m.Now()
}

// observeLatency records one latency sample when a clock is installed.
func (m *Metrics) observeLatency(start int64) {
	if m.Now == nil {
		return
	}
	m.Latency.Observe(m.Now() - start)
}
