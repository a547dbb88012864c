package retrieval

import (
	"math/rand"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/similarity"
	"qosalloc/internal/workload"
)

// largeEngine builds a float engine over the 64 types × 64 variants × 16
// attributes case base of the scan-heavy serving workload, with requests
// of 4 constraints each.
func largeEngine(tb testing.TB, opt Options) (*Engine, []casebase.Request) {
	tb.Helper()
	cb, reg, err := workload.GenCaseBase(workload.CaseBaseSpec{
		Types: 64, ImplsPerType: 64, AttrsPerImpl: 16, AttrUniverse: 32, Seed: 5,
	})
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	reqs := make([]casebase.Request, 64)
	for i := range reqs {
		reqs[i] = randomRequest(r, cb, reg, 4)
	}
	return NewEngine(cb, opt), reqs
}

// TestEngineRetrieveZeroAllocs guards the single-pass walk: once its
// scratch has grown, Retrieve allocates nothing —
// not per variant, not per constraint, not for the selection. It holds
// for the column kernel of the default measures and for the per-variant
// scorer every other measure takes.
func TestEngineRetrieveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		name    string
		opt     Options
		columns bool
	}{
		{"columns", Options{}, true},
		{"generic", Options{Local: similarity.Quadratic{}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, reqs := largeEngine(t, tc.opt)
			if e.columns != tc.columns {
				t.Fatalf("column kernel chosen: %v, want %v", e.columns, tc.columns)
			}
			for _, req := range reqs {
				if _, err := e.Retrieve(req); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := e.Retrieve(reqs[i%len(reqs)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Fatalf("warmed Retrieve allocates %v times per call, want 0", allocs)
			}
		})
	}
}

// BenchmarkEngineRetrieveLarge measures one float-engine walk at 64×64×16
// with k=4: the best match, and the 3-best list allocation placement
// asks for. The generic cases score the same measures through the
// per-variant scorer the column kernel replaces.
func BenchmarkEngineRetrieveLarge(b *testing.B) {
	for _, path := range []struct {
		name string
		opt  Options
	}{
		{"", Options{}},
		{"generic/", genericOptions(0)},
	} {
		e, reqs := largeEngine(b, path.opt)
		b.Run(path.name+"Retrieve", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Retrieve(reqs[i%len(reqs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(path.name+"RetrieveN3", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.RetrieveN(reqs[i%len(reqs)], 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
