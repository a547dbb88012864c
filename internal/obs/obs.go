// Package obs is the observability substrate of the allocation pipeline:
// atomic counters and gauges, fixed-bucket latency histograms, and a
// bounded event-trace ring, collected in a Registry that renders either a
// Prometheus-style text exposition or a JSON snapshot. Journal, the
// append-only replay log with a running digest, is kept apart from the
// Registry: it is a run's witness, not a metric.
//
// The package is dependency-free (standard library only) and makes two
// promises the rest of the repo leans on:
//
//   - Determinism under sim-time. Nothing in this package reads the wall
//     clock or a random source. Every counter increment, histogram
//     observation and ring event carries a caller-supplied value, so a
//     simulation driven by the rtsys discrete clock produces bit-identical
//     metrics on every run (the repro -exp obs golden test pins this).
//     Under real load the caller passes wall-clock readings instead and
//     the same machinery yields live telemetry.
//
//   - Lock-free hot paths. Counter, Gauge and Histogram mutate through
//     sync/atomic only; instrumented code never takes a lock to count.
//     The Ring takes a mutex, which is why rings are reserved for
//     low-rate events (faults, health transitions, placement outcomes),
//     never per-attribute work.
//
// Metric names follow the Prometheus convention (snake_case, unit
// suffix, _total for counters) and may carry a label set in curly braces:
// "qos_fault_injections_total{kind=\"seu\"}" registers a series of the
// base metric qos_fault_injections_total. Series of one base name share
// HELP/TYPE in the exposition.
package obs

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative deltas are ignored: counters only go up.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue depth, occupancy).
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Registry holds named metrics and renders them. The zero value is not
// usable; call NewRegistry. A nil *Registry is a valid no-op target for
// every Get-or-create method and for Attach, so instrumented code can run
// uninstrumented without nil checks at each site.
type Registry struct {
	mu       sync.Mutex
	order    []string // full series names, registration order
	kind     map[string]metricKind
	help     map[string]string     // by base name, first registration wins
	counters map[string]*Counter   // the counter Counter hands out, by series
	sources  map[string][]*Counter // what a series sums: Counter's own and attached ones
	gauges   map[string]*Gauge
	hists    map[string]*Histogram   // the histogram Histogram hands out, by series
	hsources map[string][]*Histogram // what a series merges: Histogram's own and attached ones
	hcounts  map[string][]histCount  // what a series merges besides: attached counters
	hbounds  map[string][]int64      // a histogram series' bounds, set by its first source
	rings    map[string]*Ring
}

// histCount is a histogram source a counter stands for: each unit of c
// is one observation of the value v.
type histCount struct {
	c *Counter
	v int64
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindRing
)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kind:     make(map[string]metricKind),
		help:     make(map[string]string),
		counters: make(map[string]*Counter),
		sources:  make(map[string][]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		hsources: make(map[string][]*Histogram),
		hcounts:  make(map[string][]histCount),
		hbounds:  make(map[string][]int64),
		rings:    make(map[string]*Ring),
	}
}

// baseName strips the optional {label="v",...} suffix of a series name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// register claims a series name for a kind, panicking on a kind clash —
// that is a programming error worth failing loudly on, like a duplicate
// expvar.
func (r *Registry) register(name, help string, k metricKind) {
	if prev, dup := r.kind[name]; dup {
		if prev != k {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return
	}
	r.kind[name] = k
	r.order = append(r.order, name)
	base := baseName(name)
	if _, ok := r.help[base]; !ok && help != "" {
		r.help[base] = help
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Safe for concurrent use. A nil registry returns a usable
// dangling counter so instrumentation never branches. It never returns
// a counter an owner attached: the series then sums both.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.register(name, help, kindCounter)
	c := &Counter{}
	r.counters[name] = c
	r.sources[name] = append(r.sources[name], c)
	return c
}

// Attach exports a counter its owner keeps, so a layer counts each fact
// once and its Stats and the exposition read the same value. The series
// reports the sum of all its sources: two components attaching under
// one name export their merged count. Attaching the same counter twice
// does nothing, and so does any call on a nil registry.
func (r *Registry) Attach(name, help string, c *Counter) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, kindCounter)
	if !slices.Contains(r.sources[name], c) {
		r.sources[name] = append(r.sources[name], c)
	}
}

// counterValue sums a counter series' sources. Caller holds r.mu.
func (r *Registry) counterValue(name string) int64 {
	var v int64
	for _, c := range r.sources[name] {
		v += c.Load()
	}
	return v
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.register(name, help, kindGauge)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds on first use (later calls reuse the
// first bounds). Like Counter, it never returns an attached histogram.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	if r == nil {
		return NewHistogram(bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.register(name, help, kindHistogram)
	h := NewHistogram(bounds)
	r.hists[name] = h
	r.addHistSource(name, h)
	return h
}

// AttachHistogram exports a histogram its owner keeps, the histogram
// twin of Attach: a layer that observes one fact in several places (one
// histogram per shard, so no two shards write one cache line) exports
// them as one series, whose buckets, count and sum are the sums of its
// sources'. Every source of a series must have the same bounds; a
// mismatch panics, like a kind clash. Attaching the same histogram
// twice does nothing, and so does any call on a nil registry.
func (r *Registry) AttachHistogram(name, help string, h *Histogram) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, kindHistogram)
	if !slices.Contains(r.hsources[name], h) {
		r.addHistSource(name, h)
	}
}

// AttachHistogramCounter exports a counter as a histogram source: each
// unit of c is one observation of the value v, so a layer whose every
// observation of some fact has the same value counts it once, with one
// counter write, and the series still renders the buckets, count and
// sum that as many Observe(v) calls would give. The series merges it
// with its other sources, of either kind; bounds must equal theirs, and
// a mismatch panics, as in AttachHistogram. Attaching the same counter
// twice does nothing, and so does any call on a nil registry.
func (r *Registry) AttachHistogramCounter(name, help string, bounds []int64, v int64, c *Counter) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, kindHistogram)
	if !slices.ContainsFunc(r.hcounts[name], func(hc histCount) bool { return hc.c == c }) {
		r.claimBounds(name, bounds)
		r.hcounts[name] = append(r.hcounts[name], histCount{c, v})
	}
}

// addHistSource appends h to a histogram series' sources. Caller holds
// r.mu.
func (r *Registry) addHistSource(name string, h *Histogram) {
	r.claimBounds(name, h.bounds)
	r.hsources[name] = append(r.hsources[name], h)
}

// claimBounds sets a histogram series' bounds at its first source and
// panics when a later source's differ. Caller holds r.mu.
func (r *Registry) claimBounds(name string, bounds []int64) {
	if b, ok := r.hbounds[name]; !ok {
		r.hbounds[name] = slices.Clone(bounds)
	} else if !slices.Equal(b, bounds) {
		panic(fmt.Sprintf("obs: histogram %q attached with different bounds", name))
	}
}

// histogramValue merges a histogram series' sources. Caller holds r.mu.
func (r *Registry) histogramValue(name string) HistogramSnapshot {
	b := r.hbounds[name]
	s := HistogramSnapshot{Bounds: slices.Clone(b), Buckets: make([]int64, len(b)+1)}
	for _, h := range r.hsources[name] {
		for i, n := range h.BucketCounts() {
			s.Buckets[i] += n
		}
		s.Count += h.Count()
		s.Sum += h.Sum()
	}
	for _, hc := range r.hcounts[name] {
		n := hc.c.Load()
		s.Buckets[bucketOf(b, hc.v)] += n
		s.Count += n
		s.Sum += n * hc.v
	}
	return s
}

// Ring returns the event ring registered under name, creating it with
// the given capacity on first use.
func (r *Registry) Ring(name, help string, capacity int) *Ring {
	if r == nil {
		return NewRing(capacity)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if rg, ok := r.rings[name]; ok {
		return rg
	}
	r.register(name, help, kindRing)
	rg := NewRing(capacity)
	r.rings[name] = rg
	return rg
}

// seriesByKind returns the sorted series names of one kind. Caller holds
// no lock; the snapshot is taken under the registry lock.
func (r *Registry) seriesByKind(k metricKind) []string {
	var out []string
	for _, name := range r.order {
		if r.kind[name] == k {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
