package obs

import "sync/atomic"

// Histogram is a fixed-bucket histogram with atomic buckets: bounds are
// upper bounds (inclusive, ascending) and one overflow bucket catches
// everything above the last bound — the Prometheus cumulative-bucket
// model, kept allocation-free after construction so Observe is safe on
// hot paths.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1, last = +Inf
	count   atomic.Int64
	sum     atomic.Int64
}

// Default bucket sets. Values are plain int64s: the unit is whatever the
// caller observes — simulation microseconds in the experiments,
// wall-clock nanoseconds under real load, or dimensionless depths.
var (
	// LatencyBucketsMicros spans the reconfiguration-dominated latency
	// range of the platform: tens of microseconds (DSP opcode loads) to
	// tens of milliseconds (large partial bitstreams over ICAP).
	LatencyBucketsMicros = []int64{10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000}
	// DepthBuckets suits small walk depths and queue lengths (N-best
	// list positions, pool idle lengths, retry counts).
	DepthBuckets = []int64{1, 2, 3, 5, 8, 13, 21}
	// CountBuckets suits per-operation work counts (implementations
	// scored, attributes compared per retrieval).
	CountBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}
)

// NewHistogram returns a histogram over the given bucket upper bounds,
// owned by the caller: a nil registry's dangling histogram, or a source
// for Registry.AttachHistogram.
func NewHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketOf(h.bounds, v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// bucketOf returns the index of the bucket that v falls in: the first
// bound at or above v, or len(bounds), the overflow bucket.
func bucketOf(bounds []int64, v int64) int {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	return i
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}
