// Package obs is a minimal stand-in for qosalloc/internal/obs so the
// obslint and detlint fixtures typecheck hermetically. The analyzers
// match the Registry and metric types by package name.
package obs

// Counter mirrors obs.Counter.
type Counter struct{ v int64 }

// Inc mirrors (*obs.Counter).Inc.
func (c *Counter) Inc() { c.v++ }

// Add mirrors (*obs.Counter).Add.
func (c *Counter) Add(n int64) { c.v += n }

// Gauge mirrors obs.Gauge.
type Gauge struct{ v int64 }

// Set mirrors (*obs.Gauge).Set.
func (g *Gauge) Set(n int64) { g.v = n }

// Add mirrors (*obs.Gauge).Add.
func (g *Gauge) Add(n int64) { g.v += n }

// Histogram mirrors obs.Histogram.
type Histogram struct{ n int64 }

// Observe mirrors (*obs.Histogram).Observe.
func (h *Histogram) Observe(v int64) { h.n++ }

// Event mirrors obs.Event.
type Event struct {
	At     int64
	Kind   string
	Detail string
}

// Ring mirrors obs.Ring.
type Ring struct{ buf []Event }

// Append mirrors (*obs.Ring).Append.
func (r *Ring) Append(e Event) { r.buf = append(r.buf, e) }

// LatencyBucketsMicros mirrors the shared bucket set of the real
// package.
var LatencyBucketsMicros = []int64{10, 100, 1000}

// Registry mirrors obs.Registry.
type Registry struct{}

// NewRegistry mirrors obs.NewRegistry.
func NewRegistry() *Registry { return &Registry{} }

// Counter mirrors (*obs.Registry).Counter.
func (r *Registry) Counter(name, help string) *Counter { return &Counter{} }

// Attach mirrors (*obs.Registry).Attach.
func (r *Registry) Attach(name, help string, c *Counter) {}

// Gauge mirrors (*obs.Registry).Gauge.
func (r *Registry) Gauge(name, help string) *Gauge { return &Gauge{} }

// AttachHistogram mirrors (*obs.Registry).AttachHistogram.
func (r *Registry) AttachHistogram(name, help string, h *Histogram) {}

// AttachHistogramCounter mirrors (*obs.Registry).AttachHistogramCounter.
func (r *Registry) AttachHistogramCounter(name, help string, bounds []int64, v int64, c *Counter) {}

// NewHistogram mirrors obs.NewHistogram.
func NewHistogram(bounds []int64) *Histogram { return &Histogram{} }

// Histogram mirrors (*obs.Registry).Histogram.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram { return &Histogram{} }

// Ring mirrors (*obs.Registry).Ring.
func (r *Registry) Ring(name, help string, capacity int) *Ring { return &Ring{} }
