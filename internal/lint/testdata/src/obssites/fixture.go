// Package obssites is the obslint fixture: metric-name shape, shared
// bucket sets, and the nil-registry dangling-bundle invariant.
package obssites

import (
	"fmt"
	"obs"
)

// depthBuckets is a sanctioned package-level bucket set.
var depthBuckets = []int64{1, 2, 3, 5}

func register(reg *obs.Registry) {
	_ = reg.Counter("qos_good_total", "well-shaped name")
	_ = reg.Counter("qos_good_total{kind=\"hit\"}", "well-shaped labeled series")
	_ = reg.Counter("Bad-Name", "rejected")                        // want `obslint: metric name "Bad-Name" does not match`
	_ = reg.Counter("retrievals", "rejected: missing qos_ prefix") // want `obslint: metric name "retrievals" does not match`
	_ = reg.Gauge("qos_UPPER", "rejected: not snake_case")         // want `obslint: metric name "qos_UPPER" does not match`
	_ = reg.Histogram("qos_wait_micros", "shared buckets pass", obs.LatencyBucketsMicros)
	_ = reg.Histogram("qos_depth", "local package-level buckets pass", depthBuckets)
	_ = reg.Histogram("qos_adhoc_micros", "inline buckets rejected", []int64{1, 2, 3}) // want `obslint: histogram buckets must be a shared package-level bucket set`
	_ = reg.Ring("qos_trace", "rings carry names too", 64)
}

// attach names obey the rules of the get-or-create methods.
func attach(reg *obs.Registry, c *obs.Counter) {
	reg.Attach("qos_owned_total{reason=\"fold\"}", "well-shaped attached series", c)
	reg.Attach("owned", "rejected: missing qos_ prefix", c) // want `obslint: metric name "owned" does not match`
}

// attachHistogram: an owned histogram's buckets are package-level like
// a created one's, and its attached name obeys the same rules.
func attachHistogram(reg *obs.Registry) {
	h := obs.NewHistogram(depthBuckets)
	reg.AttachHistogram("qos_owned_size", "well-shaped attached histogram", h)
	reg.AttachHistogram("qos_owned_size{shard=\"0\"}", "well-shaped labeled series", h)
	reg.AttachHistogram("owned_size", "rejected: missing qos_ prefix", h) // want `obslint: metric name "owned_size" does not match`
	var name string
	reg.AttachHistogram(name, "unauditable", h) // want `obslint: metric name must be a constant string`
	_ = obs.NewHistogram([]int64{1, 2})         // want `obslint: histogram buckets must be a shared package-level bucket set`
	_ = obs.NewHistogram(obs.LatencyBucketsMicros)
}

// attachHistogramCounter: a counter attached as a histogram source
// names its series and its buckets under the same rules.
func attachHistogramCounter(reg *obs.Registry, c *obs.Counter) {
	reg.AttachHistogramCounter("qos_owned_size", "well-shaped counter source", depthBuckets, 1, c)
	reg.AttachHistogramCounter("owned_size", "rejected: missing qos_ prefix", depthBuckets, 1, c) // want `obslint: metric name "owned_size" does not match`
	reg.AttachHistogramCounter("qos_owned_size", "", []int64{1, 2}, 1, c)                         // want `obslint: histogram buckets must be a shared package-level bucket set`
}

// series is the sanctioned labeled-series idiom: a constant Sprintf
// format whose base name is auditable.
func series(reg *obs.Registry, shard int) {
	_ = reg.Gauge(fmt.Sprintf("qos_queue_depth{shard=%q}", fmt.Sprintf("%d", shard)), "per-shard depth")
	_ = reg.Gauge(fmt.Sprintf("%s{shard=%q}", "qos_queue_depth", shard), "opaque base") // want `obslint: metric series format "%s\{shard=%q\}" does not start with a qos_`
}

func dynamicName(reg *obs.Registry, name string) {
	_ = reg.Counter(name, "unauditable") // want `obslint: metric name must be a constant string`
}

func localBuckets(reg *obs.Registry) {
	mine := []int64{1, 2}
	_ = reg.Histogram("qos_local", "function-local buckets rejected", mine) // want `obslint: histogram buckets must be a shared package-level bucket set`
}

// hotPath must not branch on instrumentation: a nil registry hands out
// dangling no-op metrics.
func hotPath(reg *obs.Registry, c *obs.Counter) {
	if reg != nil { // want `obslint: branching on a nil \*obs\.Registry`
		c.Inc()
	}
	if nil == reg { // want `obslint: branching on a nil \*obs\.Registry`
		return
	}
}

// dangling is the sanctioned shape: record unconditionally; storing
// the enabled bit in a struct field at construction is also legal.
type bundle struct{ enabled bool }

func dangling(reg *obs.Registry, c *obs.Counter) bundle {
	c.Inc()
	return bundle{enabled: reg != nil}
}

// suppressed carries a documented exception: no diagnostic.
func suppressed(reg *obs.Registry) bool {
	//qosvet:ignore obslint fixture exercising the documented suppression path
	if reg == nil {
		return false
	}
	return true
}
