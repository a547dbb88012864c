// Command perfbench is the repository's benchmark: it drives the QoS
// allocation service with a seeded, fixed op schedule from closed-loop
// clients, checks every answer, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) with the JSON verdict as the
// last line of standard output. See README.md in this directory.
//
//	perfbench --workload hot_small --seed 1 --seconds 10 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strings"

	"qosalloc"
)

// workloads maps each --workload name to its driver. README.md records
// why each exists; BENCHMARK.json gates all but qosd_wire, which is run
// by hand.
var workloads = map[string]func(config) (*outcome, error){
	"hot_small": retrieveWorkload{
		spec: qosalloc.CaseBaseSpec{Types: 15, ImplsPerType: 10, AttrsPerImpl: 10, AttrUniverse: 10},
		k:    3, hot: 64, opsPerSec: 330_000,
	}.run,
	"scan_large": retrieveWorkload{
		spec: qosalloc.CaseBaseSpec{Types: 64, ImplsPerType: 64, AttrsPerImpl: 16, AttrUniverse: 32},
		k:    4, opsPerSec: 30_000,
	}.run,
	"qosd_wire": wireWorkload{
		spec: qosalloc.CaseBaseSpec{Types: 15, ImplsPerType: 10, AttrsPerImpl: 10, AttrUniverse: 10},
		k:    3, hot: 64, opsPerSec: 15_000,
	}.run,
	"churn_alloc": churnWorkload{
		spec: qosalloc.CaseBaseSpec{Types: 24, ImplsPerType: 16, AttrsPerImpl: 8, AttrUniverse: 12, ValueSpan: 1000},
		k:    3, opsPerSec: 50_000, requests: 512, observations: 4096, foldThreshold: 24, holdOps: 4,
	}.run,
}

// gcPercent is the GOGC of every process that runs the service, the
// harness and the qosd child alike. The service's live heap is a few
// megabytes, so at the default of 100 the collector runs every few tens
// of milliseconds, and its mark phases put 1-2% of scan_large's calls
// into a millisecond tail that sits right on p99, making p99 swing
// two-fold between identical runs. 400 models a host process with more
// heap headroom, so the tail beyond p99 no longer decides it.
const gcPercent = 400

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	trace := 0
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the case base and the op schedule")
	flag.IntVar(&cfg.seconds, "seconds", 10, "run length: the op count is a fixed rate times this")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.StringVar(&cfg.qosd, "qosd", "", "path of the qosd binary (qosd_wire)")
	flag.Parse()
	cfg.trace = trace == 1
	debug.SetGCPercent(gcPercent)
	drive, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	out, err := drive(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	defs, vals := endToEnd, out.e2e
	if cfg.trace {
		defs, vals = perLayer, out.layers
	}
	ms, err := report(defs, vals)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check: %s\n", cfg.workload, p)
	}
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: ms}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
