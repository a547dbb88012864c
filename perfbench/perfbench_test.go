package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"testing"

	"qosalloc"
)

// nearestRank is the reference percentile: the smallest sample with at
// least q of the samples at or below it.
func nearestRank(sorted []int64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func TestHistQuantilesMatchSortedReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	dists := map[string]func() int64{
		"small-ints":  func() int64 { return r.Int63n(300) },
		"log-uniform": func() int64 { return int64(math.Exp(r.Float64() * 20)) },
		"bimodal": func() int64 {
			if r.Intn(100) == 0 {
				return 60_000 + r.Int63n(10_000)
			}
			return 2_000 + r.Int63n(1_000)
		},
	}
	for name, draw := range dists {
		for _, n := range []int{1, 10, 1000, 100_000} {
			var h hist
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = draw()
				h.record(xs[i])
			}
			sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
			for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
				got, want := h.quantile(q), nearestRank(xs, q)
				// One bucket is at most 1/128 of its lower bound wide
				// (1 below 256): the interpolated answer stays within a
				// bucket of the rank's sample.
				if tol := want/subCount + 1; math.Abs(got-want) > tol {
					t.Errorf("%s n=%d q=%v: hist %v, sorted %v (tolerance %v)", name, n, q, got, want, tol)
				}
			}
		}
	}
}

// TestSliceQuantileIgnoresOneBurst: a burst of slow calls in one slice
// of the schedule moves that slice's p99 but not the reported median,
// while slowness throughout the run moves it.
func TestSliceQuantileIgnoresOneBurst(t *testing.T) {
	var p pass
	for j := range p.slices {
		for i := 0; i < 1000; i++ {
			p.slices[j].record(1000)
		}
	}
	for i := 0; i < 100; i++ {
		p.slices[3].record(1_000_000)
	}
	if got := p.sliceQuantile(0.99); math.Abs(got-1000) > 1000/subCount+1 {
		t.Fatalf("one bursty slice moved the median p99 to %v", got)
	}
	for j := range p.slices {
		for i := 0; i < 100; i++ {
			p.slices[j].record(1_000_000)
		}
	}
	if got := p.sliceQuantile(0.99); got < 500_000 {
		t.Fatalf("a tail in every slice left the median p99 at %v", got)
	}
}

func TestHistBucketsTileTheLine(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 255, 256, 257, 511, 512, 1000, 1 << 20, 1<<40 - 1, 1 << 40, 1 << 62} {
		b := bucketOf(v)
		if b < prev || b >= numBuckets {
			t.Fatalf("bucketOf(%d) = %d after %d", v, b, prev)
		}
		prev = b
		lo, w := bucketBounds(b)
		if v < 1<<(maxOctave+1) && (float64(v) < lo || float64(v) >= lo+w) {
			t.Errorf("%d outside its bucket [%v, %v)", v, lo, lo+w)
		}
	}
}

func TestHistRecordDoesNotAllocate(t *testing.T) {
	var h hist
	if n := testing.AllocsPerRun(1000, func() { h.record(12345) }); n != 0 {
		t.Fatalf("record allocates %v times per call", n)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRE)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
	for name := range workloads {
		if !nameRE.MatchString(name) {
			t.Errorf("workload name %q does not match %s", name, nameRE)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json at the
// repository root in step with the metric tables and workloads here.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, harness %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, harness %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, harness %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, harness %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	// qosd_wire is run by hand only (see README.md); every other
	// workload is gated.
	if len(spec.Workloads) != len(workloads)-1 {
		t.Errorf("BENCHMARK.json has %d workloads, harness %d besides qosd_wire", len(spec.Workloads), len(workloads)-1)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no driver", w.Name)
		}
	}
}

func TestReportRejectsMissingMetric(t *testing.T) {
	v := values{}
	for _, d := range endToEnd[1:] {
		v[d.name] = 1
	}
	if _, err := report(endToEnd, v); err == nil {
		t.Fatal("report accepted a table with a metric missing")
	}
	v[endToEnd[0].name] = math.NaN()
	if _, err := report(endToEnd, v); err == nil {
		t.Fatal("report accepted NaN")
	}
}

func TestPermIsABijection(t *testing.T) {
	for space := uint64(1); space <= 300; space++ {
		p := newPerm(space, int64(space))
		hit := make([]bool, space)
		for x := uint64(0); x < space; x++ {
			y := p.fwd(x)
			if y >= space || hit[y] {
				t.Fatalf("space %d: fwd(%d) = %d repeats or escapes", space, x, y)
			}
			hit[y] = true
			if back := p.inv(y); back != x {
				t.Fatalf("space %d: inv(fwd(%d)) = %d", space, x, back)
			}
		}
	}
}

func paperCaseBase(t *testing.T, seed int64) *qosalloc.CaseBase {
	t.Helper()
	cb, _, err := qosalloc.GenCaseBase(qosalloc.CaseBaseSpec{Types: 15, ImplsPerType: 10, AttrsPerImpl: 10, AttrUniverse: 10, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return cb
}

func TestReqGenIsInjectiveAndValid(t *testing.T) {
	cb := paperCaseBase(t, 3)
	gen, err := newReqGen(cb, 3, 20_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.checkDistinct(20_000); err != nil {
		t.Fatal(err)
	}
	sigs := map[string]bool{}
	for k := uint64(0); k < 2000; k++ {
		req := gen.request(k)
		if err := req.Validate(cb); err != nil {
			t.Fatalf("key %d: invalid request: %v", k, err)
		}
		if want := qosalloc.NewRequest(req.Type, req.Constraints...).EqualWeights(); !sameRequest(req, want) {
			t.Fatalf("key %d: request not in NewRequest/EqualWeights form", k)
		}
		sig := signature(req)
		if sigs[sig] {
			t.Fatalf("key %d repeats a signature", k)
		}
		sigs[sig] = true
	}
	buf := make([]qosalloc.Constraint, 3)
	if n := testing.AllocsPerRun(100, func() { gen.fill(77, buf) }); n != 0 {
		t.Fatalf("fill allocates %v times per call", n)
	}
}

func sameRequest(a, b qosalloc.Request) bool {
	if a.Type != b.Type || len(a.Constraints) != len(b.Constraints) {
		return false
	}
	for i := range a.Constraints {
		if a.Constraints[i] != b.Constraints[i] {
			return false
		}
	}
	return true
}

func signature(req qosalloc.Request) string {
	b, _ := json.Marshal(req)
	return string(b)
}

func TestHotMixShape(t *testing.T) {
	m := newHotMix(5, 100_000, 64)
	if s := m.repeatShare(); s < 0.95 {
		t.Fatalf("repeat share %v < 0.95", s)
	}
	for b := uint64(0); b < m.n/coldEvery; b++ {
		cold := 0
		for i := b * coldEvery; i < (b+1)*coldEvery; i++ {
			if key, isCold := m.at(i); isCold {
				cold++
				if key != b {
					t.Fatalf("block %d: cold key %d", b, key)
				}
			} else if key < m.cold || key >= m.keys() {
				t.Fatalf("op %d: hot key %d outside [%d, %d)", i, key, m.cold, m.keys())
			}
		}
		if cold != 1 {
			t.Fatalf("block %d holds %d cold ops", b, cold)
		}
	}
}

// TestOutputCheckCatchesWrongResult serves a schedule through a real
// Service, then shows that the digest check accepts the true answers
// and rejects the same answers with one of them altered.
func TestOutputCheckCatchesWrongResult(t *testing.T) {
	cb := paperCaseBase(t, 11)
	gen, err := newReqGen(cb, 3, 500, 4)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := platform(cb)
	if err != nil {
		t.Fatal(err)
	}
	svc := qosalloc.NewService(cb, rt)
	defer svc.Close()
	const n = 500
	served := make([]qosalloc.Result, n)
	var digest uint64
	for i := uint64(0); i < n; i++ {
		r, err := svc.Retrieve(context.Background(), gen.request(i%50)) // repeats hit tokens
		if err != nil {
			t.Fatal(err)
		}
		served[i] = r
		digest += outcomeWord(i, r, nil)
	}
	reqAt := func(i uint64, buf []qosalloc.Constraint) (qosalloc.Request, error) { return gen.fill(i%50, buf), nil }
	want, walks := expectedDigest(cb, n, 3, reqAt, nil, 3)
	if digest != want {
		t.Fatalf("true answers rejected: digest %x, want %x", digest, want)
	}
	if walks.Retrievals != n {
		t.Fatalf("checker walked %d requests, want %d", walks.Retrievals, n)
	}
	wrong := []func(r qosalloc.Result) qosalloc.Result{
		func(r qosalloc.Result) qosalloc.Result { r.Impl++; return r },
		func(r qosalloc.Result) qosalloc.Result { r.Type++; return r },
		func(r qosalloc.Result) qosalloc.Result {
			r.Similarity = math.Nextafter(r.Similarity, 2)
			return r
		},
	}
	for k, alter := range wrong {
		op := uint64(17 * (k + 1))
		bad := digest - outcomeWord(op, served[op], nil) + outcomeWord(op, alter(served[op]), nil)
		if bad == want {
			t.Errorf("alteration %d of op %d's answer passed the check", k, op)
		}
	}
	// Swapping two ops' answers is caught too: words are bound to ops.
	a, b := uint64(3), uint64(4)
	if outcomeWord(0, served[a], nil) != outcomeWord(0, served[b], nil) {
		swapped := digest - outcomeWord(a, served[a], nil) - outcomeWord(b, served[b], nil) +
			outcomeWord(a, served[b], nil) + outcomeWord(b, served[a], nil)
		if swapped == want {
			t.Error("swapped answers passed the check")
		}
	}
	// An error where an answer was due is caught.
	errd := digest - outcomeWord(9, served[9], nil) + outcomeWord(9, qosalloc.Result{}, context.Canceled)
	if errd == want {
		t.Error("an error in place of an answer passed the check")
	}
}

func TestServeAccountingCheck(t *testing.T) {
	var out outcome
	checkServeAccounting(&out, qosalloc.ServiceStats{}, qosalloc.ServiceStats{Enqueued: 10, BatchedJobs: 10}, 10)
	if len(out.problems) != 0 {
		t.Fatalf("balanced counters flagged: %v", out.problems)
	}
	checkServeAccounting(&out, qosalloc.ServiceStats{}, qosalloc.ServiceStats{Enqueued: 10, BatchedJobs: 9, Shed: 1}, 10)
	if len(out.problems) != 2 {
		t.Fatalf("want 2 problems (unbatched job, shed), got %v", out.problems)
	}
}
