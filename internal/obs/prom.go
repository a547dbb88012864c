package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// withLabel splices an extra label into a series name: "x" becomes
// `x{extra}`, `x{a="b"}` becomes `x{a="b",extra}`.
func withLabel(name, extra string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + extra + "}"
	}
	return name + "{" + extra + "}"
}

// WriteProm renders the registry in the Prometheus text exposition
// format (version 0.0.4): one HELP/TYPE header per base metric name,
// then every series sorted by name. Event rings have no Prometheus
// equivalent and only surface a <name>_events_total counter here; the
// retained events appear in the JSON snapshot.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	emitHeader := func(seen map[string]bool, name, typ string) {
		base := baseName(name)
		if seen[base] {
			return
		}
		seen[base] = true
		if h := r.help[base]; h != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", base, h)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", base, typ)
	}

	seen := make(map[string]bool)
	for _, name := range r.seriesByKind(kindCounter) {
		emitHeader(seen, name, "counter")
		fmt.Fprintf(w, "%s %d\n", name, r.counterValue(name))
	}
	for _, name := range r.seriesByKind(kindGauge) {
		emitHeader(seen, name, "gauge")
		fmt.Fprintf(w, "%s %d\n", name, r.gauges[name].Load())
	}
	for _, name := range r.seriesByKind(kindHistogram) {
		emitHeader(seen, name, "histogram")
		h := r.histogramValue(name)
		base := baseName(name)
		labels := name[len(base):]
		var cum int64
		for i, b := range h.Bounds {
			cum += h.Buckets[i]
			fmt.Fprintf(w, "%s %d\n", withLabel(base+"_bucket"+labels, fmt.Sprintf("le=%q", fmt.Sprint(b))), cum)
		}
		cum += h.Buckets[len(h.Buckets)-1]
		fmt.Fprintf(w, "%s %d\n", withLabel(base+"_bucket"+labels, `le="+Inf"`), cum)
		fmt.Fprintf(w, "%s_sum%s %d\n", base, labels, h.Sum)
		fmt.Fprintf(w, "%s_count%s %d\n", base, labels, h.Count)
	}
	for _, name := range r.seriesByKind(kindRing) {
		counterName := name + "_events_total"
		emitHeader(seen, counterName, "counter")
		fmt.Fprintf(w, "%s %d\n", counterName, r.rings[name].Total())
	}
	return nil
}

// HistogramSnapshot is the JSON form of one histogram.
type HistogramSnapshot struct {
	Bounds  []int64 `json:"bounds"`
	Buckets []int64 `json:"buckets"` // per-bucket counts; last = overflow
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
}

// RingSnapshot is the JSON form of one event ring.
type RingSnapshot struct {
	Total  uint64  `json:"total"`
	Events []Event `json:"events"`
}

// Snapshot is a point-in-time copy of every metric, JSON-serializable
// and independent of the live registry. Counters and gauges that move
// while the snapshot is taken land on whichever side of the copy their
// atomic update raced to — per-metric values are exact, cross-metric
// consistency is not promised (see DESIGN.md §7).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Rings      map[string]RingSnapshot      `json:"rings"`
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
		Rings:      make(map[string]RingSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name := range r.sources {
		s.Counters[name] = r.counterValue(name)
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name := range r.hbounds {
		s.Histograms[name] = r.histogramValue(name)
	}
	for name, rg := range r.rings {
		s.Rings[name] = RingSnapshot{Total: rg.Total(), Events: rg.Events()}
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON (keys sorted by
// encoding/json's map ordering, so output is deterministic).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// CounterValue returns the value of a registered counter series and
// whether it exists — the golden tests' accessor.
func (r *Registry) CounterValue(name string) (int64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sources[name]; !ok {
		return 0, false
	}
	return r.counterValue(name), true
}

// CounterNames returns every registered counter series, sorted.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seriesByKind(kindCounter)
}
