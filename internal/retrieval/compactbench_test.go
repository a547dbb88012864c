package retrieval

// Compacted-layout retrieval benchmark (§5's projected ~2× speedup, the
// software half). BenchmarkCompactVsFixedRetrieval reports both paths
// under the normal -bench flow; TestCompactRetrievalSpeedup is the
// `make bench-compact` CI gate — it measures both paths with
// testing.Benchmark, FAILS if the compacted kernel (FixedEngine) is not
// faster than the pointer-walking fixedReference, and refreshes
// BENCH_compact_retrieval.json when pointed at an output file.

import (
	"encoding/json"
	"os"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/memlist"
	"qosalloc/internal/workload"
)

// paperScaleFixtures is the benchmark case base (15 types × 10 variants
// × 10 attributes) with a 64-request stream.
func paperScaleFixtures(b *testing.B) (*casebase.CaseBase, []casebase.Request) {
	b.Helper()
	cb, reg, err := workload.GenCaseBase(workload.PaperScale())
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := workload.GenRequests(cb, reg, workload.RequestStreamSpec{N: 64, ConstraintsPer: 4, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	return cb, reqs
}

// BenchmarkCompactVsFixedRetrieval (E-compact): the same paper-scale
// request stream through the pointer-walking reference and the
// compacted kernel. Both produce bit-identical Q15 results
// (TestCompactMatchesFixedBitIdentical); this measures only the
// fetch-path cost.
func BenchmarkCompactVsFixedRetrieval(b *testing.B) {
	cb, reqs := paperScaleFixtures(b)
	b.Run("fixed", func(b *testing.B) {
		fe := newFixedReference(cb)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fe.Retrieve(reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compact", func(b *testing.B) {
		ce := mustFixedEngine(b, cb)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ce.Retrieve(reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// compactBenchReport is the BENCH_compact_retrieval.json schema.
type compactBenchReport struct {
	Benchmark        string  `json:"benchmark"`
	Types            int     `json:"types"`
	ImplsPerType     int     `json:"impls_per_type"`
	AttrsPerImpl     int     `json:"attrs_per_impl"`
	Requests         int     `json:"requests"`
	FixedNsPerOp     int64   `json:"fixed_ns_per_op"`
	CompactNsPerOp   int64   `json:"compact_ns_per_op"`
	Speedup          float64 `json:"speedup"`
	UncompactedWords int     `json:"uncompacted_words"`
	CompactWords     int     `json:"compact_words"`
	SavedWords       int     `json:"saved_words"`
}

// TestCompactRetrievalSpeedup is the bench-compact gate. It is skipped
// unless QOS_BENCH_COMPACT=1 so the regular test suite stays fast and
// timing-independent; `make bench-compact` sets the variable. With
// QOS_BENCH_OUT set, the measured report is written there; the path
// should be absolute, since go test runs in this package's directory
// (BENCH_compact_retrieval.json at the repo root is the committed
// copy).
func TestCompactRetrievalSpeedup(t *testing.T) {
	if os.Getenv("QOS_BENCH_COMPACT") != "1" {
		t.Skip("set QOS_BENCH_COMPACT=1 (make bench-compact) to run the timing gate")
	}
	res := testing.Benchmark(func(b *testing.B) {
		cb, reqs := paperScaleFixtures(b)
		fe := newFixedReference(cb)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fe.Retrieve(reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	resC := testing.Benchmark(func(b *testing.B) {
		cb, reqs := paperScaleFixtures(b)
		ce := mustFixedEngine(b, cb)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ce.Retrieve(reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	fixedNs, compactNs := res.NsPerOp(), resC.NsPerOp()
	if fixedNs <= 0 || compactNs <= 0 {
		t.Fatalf("degenerate timings: fixed %d ns/op, compact %d ns/op", fixedNs, compactNs)
	}
	speedup := float64(fixedNs) / float64(compactNs)
	mr := memlist.CompactReport(15, 10, 10, 10)
	rep := compactBenchReport{
		Benchmark: "compact_retrieval",
		Types:     15, ImplsPerType: 10, AttrsPerImpl: 10, Requests: 64,
		FixedNsPerOp: fixedNs, CompactNsPerOp: compactNs, Speedup: speedup,
		UncompactedWords: mr.UncompactedWords, CompactWords: mr.CompactWords,
		SavedWords: mr.SavedWords,
	}
	t.Logf("fixed %d ns/op, compact %d ns/op, speedup %.2fx, footprint %d→%d words",
		fixedNs, compactNs, speedup, mr.UncompactedWords, mr.CompactWords)
	if out := os.Getenv("QOS_BENCH_OUT"); out != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if compactNs >= fixedNs {
		t.Fatalf("compacted retrieval (%d ns/op) is not faster than the pointer-walking baseline (%d ns/op)",
			compactNs, fixedNs)
	}
}
