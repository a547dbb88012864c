package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if c.Load() != 5 {
		t.Errorf("counter = %d, want 5", c.Load())
	}
	if r.Counter("x_total", "") != c {
		t.Error("same name must return the same counter")
	}
	g := r.Gauge("depth", "a gauge")
	g.Set(7)
	g.Add(-3)
	if g.Load() != 4 {
		t.Errorf("gauge = %d, want 4", g.Load())
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("a_total", "").Inc()
	r.Gauge("b", "").Set(1)
	r.Histogram("c", "", DepthBuckets).Observe(2)
	r.Ring("d", "", 4).Append(Event{At: 1, Kind: "x"})
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteProm = %q, %v", buf.String(), err)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 {
		t.Error("nil snapshot must be empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	want := []int64{2, 2, 0, 1} // ≤10: {5,10}; ≤100: {11,100}; ≤1000: {}; +Inf: {5000}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 5 || h.Sum() != 5126 {
		t.Errorf("count/sum = %d/%d", h.Count(), h.Sum())
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRing(3)
	for i := int64(1); i <= 5; i++ {
		r.Append(Event{At: i, Kind: "e"})
	}
	ev := r.Events()
	if len(ev) != 3 || ev[0].At != 3 || ev[2].At != 5 {
		t.Errorf("events = %+v", ev)
	}
	if r.Total() != 5 {
		t.Errorf("total = %d, want 5", r.Total())
	}
}

func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("qos_req_total", "requests").Add(3)
	r.Counter(`qos_faults_total{kind="seu"}`, "faults by kind").Add(2)
	r.Counter(`qos_faults_total{kind="devfail"}`, "").Inc()
	r.Gauge("qos_depth", "queue depth").Set(4)
	h := r.Histogram("qos_lat_micros", "latency", []int64{10, 100})
	h.Observe(7)
	h.Observe(70)
	h.Observe(700)
	r.Ring("qos_trace", "trace", 8).Append(Event{At: 1, Kind: "x"})

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE qos_req_total counter",
		"qos_req_total 3",
		`qos_faults_total{kind="devfail"} 1`,
		`qos_faults_total{kind="seu"} 2`,
		"# TYPE qos_depth gauge",
		"qos_depth 4",
		"# TYPE qos_lat_micros histogram",
		`qos_lat_micros_bucket{le="10"} 1`,
		`qos_lat_micros_bucket{le="100"} 2`,
		`qos_lat_micros_bucket{le="+Inf"} 3`,
		"qos_lat_micros_sum 777",
		"qos_lat_micros_count 3",
		"qos_trace_events_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One HELP/TYPE header per base name even with many series.
	if n := strings.Count(out, "# TYPE qos_faults_total"); n != 1 {
		t.Errorf("qos_faults_total TYPE headers = %d, want 1", n)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(9)
	r.Histogram("h", "", []int64{5}).Observe(3)
	r.Ring("tr", "", 2).Append(Event{At: 42, Kind: "k", Detail: "d"})

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["a_total"] != 9 {
		t.Errorf("counters = %v", s.Counters)
	}
	if hs := s.Histograms["h"]; hs.Count != 1 || hs.Sum != 3 {
		t.Errorf("histogram = %+v", hs)
	}
	if tr := s.Rings["tr"]; tr.Total != 1 || len(tr.Events) != 1 || tr.Events[0].At != 42 {
		t.Errorf("ring = %+v", tr)
	}
}

// TestAttach checks that a series reports the sum of its sources, that
// re-attaching a counter is a no-op, that Counter never hands out an
// attached counter, and that WriteProm, Snapshot and CounterValue agree.
func TestAttach(t *testing.T) {
	const name = `qos_attached_total{reason="x"}`
	for _, tc := range []struct {
		desc  string
		setup func(r *Registry, a, b *Counter)
		want  int64
	}{
		{"one source", func(r *Registry, a, b *Counter) {
			r.Attach(name, "attached", a)
		}, 5},
		{"sum of two owners", func(r *Registry, a, b *Counter) {
			r.Attach(name, "attached", a)
			r.Attach(name, "", b)
		}, 8},
		{"re-attach is a no-op", func(r *Registry, a, b *Counter) {
			r.Attach(name, "attached", a)
			r.Attach(name, "attached", a)
		}, 5},
		{"created plus attached", func(r *Registry, a, b *Counter) {
			r.Counter(name, "attached").Add(2)
			r.Attach(name, "", a)
		}, 7},
		{"Counter after Attach makes its own", func(r *Registry, a, b *Counter) {
			r.Attach(name, "attached", a)
			c := r.Counter(name, "")
			if c == a {
				t.Error("Counter returned the attached counter")
			}
			c.Inc()
			r.Attach(name, "", c) // already a source
		}, 6},
	} {
		t.Run(tc.desc, func(t *testing.T) {
			r := NewRegistry()
			var a, b Counter
			a.Add(5)
			b.Add(3)
			tc.setup(r, &a, &b)
			if got, ok := r.CounterValue(name); !ok || got != tc.want {
				t.Errorf("CounterValue = %d, %v; want %d", got, ok, tc.want)
			}
			if got := r.Snapshot().Counters[name]; got != tc.want {
				t.Errorf("Snapshot = %d, want %d", got, tc.want)
			}
			var buf bytes.Buffer
			if err := r.WriteProm(&buf); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("# HELP qos_attached_total attached\n# TYPE qos_attached_total counter\n%s %d\n", name, tc.want)
			if buf.String() != want {
				t.Errorf("WriteProm =\n%s\nwant\n%s", buf.String(), want)
			}
		})
	}
	t.Run("nil registry", func(t *testing.T) {
		var r *Registry
		var a Counter
		r.Attach(name, "", &a)
		a.Inc()
		if _, ok := r.CounterValue(name); ok {
			t.Error("nil registry reported a series")
		}
	})
}

func TestRegistryKindClashPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("re-registering a name with a new kind must panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x", "")
	r.Gauge("x", "")
}

// TestConcurrentMetrics exercises the lock-free paths under -race.
func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("c_total", "")
			h := r.Histogram("h", "", DepthBuckets)
			rg := r.Ring("tr", "", 16)
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i % 25))
				if i%100 == 0 {
					rg.Append(Event{At: int64(i), Kind: "tick"})
				}
			}
		}(w)
	}
	wg.Wait()
	if got, _ := r.CounterValue("c_total"); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if r.Snapshot().Histograms["h"].Count != 8000 {
		t.Error("histogram lost observations")
	}
}

// TestJournalRunningDigest checks that Hash, kept up at every Append,
// equals a fresh fnv64a fold over the lines (each followed by a
// newline), and that Lines hands out a copy.
func TestJournalRunningDigest(t *testing.T) {
	j := NewJournal()
	for i := 0; i <= 5; i++ {
		h := fnv.New64a()
		for _, line := range j.Lines() {
			_, _ = h.Write([]byte(line + "\n"))
		}
		if got, want := j.Hash(), fmt.Sprintf("fnv64a:%016x", h.Sum64()); got != want {
			t.Fatalf("after %d lines: Hash %s, fold over Lines %s", i, got, want)
		}
		j.Append(fmt.Sprintf("event=%d", i))
	}
	lines := j.Lines()
	lines[0] = "edited"
	if got := j.Lines()[0]; got != "event=0" {
		t.Errorf("Lines shares its backing array: first line now %q", got)
	}
}
