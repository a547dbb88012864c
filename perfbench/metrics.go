package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's contract: BENCHMARK.json lists the same
// names in the same order (a test keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the service sees, reported by
// every workload on an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"throughput_rps", "ops/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"rss_peak_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the per-layer metrics of a traced run (--trace 1).
// Every workload prints all of them; a layer the workload's ops never
// reach reads 0 (see README.md for which layers each workload runs).
var perLayer = []metricDef{
	{"casebase.load_ms", "ms"},
	{"serve.build_ms", "ms"},
	{"setup.heap_mb", "MB"},
	{"serve.retrieve_us_p50", "us"},
	{"serve.retrieve_us_p99", "us"},
	{"serve.self_us_p50", "us"},
	{"serve.token_hit_ratio", "ratio"},
	{"serve.dedup_ratio", "ratio"},
	{"serve.batch_mean", "count"},
	{"serve.walks_per_kop", "1/kop"},
	{"serve.shed_per_kop", "1/kop"},
	{"retrieval.walk_us_p50", "us"},
	{"retrieval.walk_us_p99", "us"},
	{"retrieval.walkn_us_p50", "us"},
	{"retrieval.impls_per_walk", "count"},
	{"retrieval.attrs_per_walk", "count"},
	{"retrieval.signature_ns", "ns"},
	{"retrieval.token_lookup_ns", "ns"},
	{"serve.allocate_us_p50", "us"},
	{"serve.allocate_us_p99", "us"},
	{"alloc.place_us_p50", "us"},
	{"alloc.place_us_p99", "us"},
	{"alloc.placed_ratio", "ratio"},
	{"alloc.preempt_per_kop", "1/kop"},
	{"serve.release_us_p50", "us"},
	{"learn.observe_us_p50", "us"},
	{"serve.commit_ms_p50", "ms"},
	{"serve.commit_ms_p99", "ms"},
	{"serve.commits_per_kop", "1/kop"},
	{"serve.stale_retries_per_kop", "1/kop"},
	{"wire.decode_us_p50", "us"},
	{"wire.encode_us_p50", "us"},
	{"admit.admit_ns_p50", "ns"},
	{"http.other_us_p50", "us"},
	{"go.alloc_bytes_per_op", "B/op"},
	{"go.gc_per_kop", "1/kop"},
	{"trace.overhead_pct", "%"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// values collects measured metrics by name; report() turns it into the
// metric map of one table, so a table entry can never go missing or
// carry the wrong unit.
type values map[string]float64

func report(defs []metricDef, v values) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, x)
		}
		out[d.name] = metric{Value: x, Unit: d.unit}
	}
	return out, nil
}

// printResult writes one "name value unit" line per metric, then the
// JSON verdict as the final line.
func printResult(w io.Writer, r result) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-30s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-30s %14d\n%-30s %14d\n%-30s %14v\n", "ops.attempted", r.Attempted, "ops.failed", r.Failed, "correct", r.Correct)
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
