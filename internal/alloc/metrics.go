package alloc

import (
	"fmt"

	"qosalloc/internal/obs"
)

// counts are the manager's counters, one per Stats field: Stats reads
// them and Instrument attaches them, so each fact is counted once.
type counts struct {
	requests, tokenHits, retrievals, placed, preemptions     obs.Counter
	rejected, infeasible, recovered, degraded, faultRejected obs.Counter
}

// attach exports the counts on reg; managers sharing a registry export
// their summed counts.
func (c *counts) attach(reg *obs.Registry) {
	reg.Attach("qos_alloc_requests_total", "allocation requests received", &c.requests)
	reg.Attach("qos_alloc_token_hits_total", "requests served by a bypass token (retrieval skipped)", &c.tokenHits)
	reg.Attach("qos_alloc_retrievals_total", "requests that ran full CBR retrieval", &c.retrievals)
	reg.Attach("qos_alloc_placed_total", "successful placements", &c.placed)
	reg.Attach("qos_alloc_preemptions_total", "victims evicted to make room", &c.preemptions)
	reg.Attach("qos_alloc_threshold_rejections_total", "requests rejected below the similarity threshold", &c.rejected)
	reg.Attach("qos_alloc_infeasible_total", "requests with matches but no placeable variant", &c.infeasible)
	reg.Attach("qos_alloc_recovered_total", "fault-stranded tasks re-placed by degrade-and-retry", &c.recovered)
	reg.Attach("qos_alloc_degraded_total", "recoveries that landed on a worse-matching variant", &c.degraded)
	reg.Attach("qos_alloc_fault_rejected_total", "stranded tasks rejected with a DegradationReport", &c.faultRejected)
}

// metrics is the manager's histogram and trace ring. A dangling bundle
// (built over a nil registry) backs every uninstrumented manager; only
// the trace ring checks enabled, to skip the event formatting cost when
// nobody is reading.
type metrics struct {
	enabled bool

	// nbestDepth observes the 1-based position of the candidate that
	// finally placed — how far down the similarity-ranked N-best list
	// the feasibility walk had to fall. Depth 1 means the best match
	// was feasible, the paper's ideal case.
	nbestDepth *obs.Histogram
	trace      *obs.Ring
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		enabled: reg != nil,
		nbestDepth: reg.Histogram("qos_alloc_nbest_depth",
			"1-based N-best position of the candidate that placed", obs.DepthBuckets),
		trace: reg.Ring("qos_alloc_trace", "placement-outcome trace (sim micros)", 256),
	}
}

// event appends a trace event at sim time, formatting only when a real
// registry is listening.
func (m *metrics) event(at int64, kind, format string, args ...any) {
	if !m.enabled {
		return
	}
	m.trace.Append(obs.Event{At: at, Kind: kind, Detail: fmt.Sprintf(format, args...)})
}
