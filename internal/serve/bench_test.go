package serve

import (
	"context"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/learn"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/workload"
)

// benchWorkload is the Table-3 capacity point (15 types × 10 impls × 10
// attrs) with a repeat-heavy client stream: 64 concurrent clients
// replaying each other's requests is exactly the regime the batching
// layer targets.
func benchWorkload(b *testing.B) (*casebase.CaseBase, []casebase.Request) {
	b.Helper()
	cb, reg, err := workload.GenCaseBase(workload.PaperScale())
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := workload.GenRequests(cb, reg, workload.RequestStreamSpec{
		N: 512, ConstraintsPer: 5, RepeatFraction: 0.5, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return cb, reqs
}

// BenchmarkServiceRetrieveMiss is the serving path of a walk-bound
// stream: the 64 types × 64 variants × 16 attributes case base, requests
// of 4 constraints that never repeat, so no bypass token and no shared
// walk ever answers, from parallel callers answered inline. One op is
// one Retrieve: hash, token probe, inline walk, token store. Request i
// asks for type i mod 64 and puts its quotient's base-32 digits on four
// attributes of at least 32 values, so requests stay distinct for the
// first 64·32⁴ ops.
func BenchmarkServiceRetrieveMiss(b *testing.B) {
	cb, reg, err := workload.GenCaseBase(workload.CaseBaseSpec{
		Types: 64, ImplsPerType: 64, AttrsPerImpl: 16, AttrUniverse: 32, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	const k, digits = 4, 32
	var wide []attr.Def
	for _, id := range reg.IDs() {
		if d, _ := reg.Lookup(id); int(d.Hi-d.Lo)+1 >= digits {
			wide = append(wide, d)
		}
	}
	if len(wide) < k {
		b.Fatalf("%d attributes span %d values, need %d", len(wide), digits, k)
	}
	types := cb.Types()
	s := New(cb, fig1System(b, cb), Config{})
	defer s.Close()
	ctx := context.Background()
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]casebase.Constraint, k)
		for pb.Next() {
			i := next.Add(1) - 1
			t := i % uint64(len(types))
			x := i / uint64(len(types))
			for c := range buf {
				d := wide[(int(t)+c*7)%len(wide)]
				buf[c] = casebase.Constraint{ID: d.ID, Value: d.Lo + attr.Value(x%digits), Weight: 1.0 / k}
				x /= digits
			}
			if _, err := s.Retrieve(ctx, casebase.Request{Type: types[t].ID, Constraints: buf}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if st := s.Stats(); st.EngineRetrievals != int64(b.N) {
		b.Fatalf("%d ops walked %d times (%d token hits, %d dedup hits)", b.N, st.EngineRetrievals, st.TokenHits, st.DedupHits)
	}
}

// BenchmarkServiceRetrieveHit is the serving path of a repeat-bound
// stream, hot_small's regime: the paper-scale tree, a hot set of 64
// distinct requests whose tokens are warmed before the timer, and
// parallel callers answered inline. One op is one Retrieve answered by
// its shard's token: hash, drain fence, token probe, one counter write.
// Each caller cycles through the hot set from its own offset, so the
// callers share no counter of their own.
func BenchmarkServiceRetrieveHit(b *testing.B) {
	cb, reg, err := workload.GenCaseBase(workload.PaperScale())
	if err != nil {
		b.Fatal(err)
	}
	hot, err := workload.GenRequests(cb, reg, workload.RequestStreamSpec{N: 64, ConstraintsPer: 5, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	s := New(cb, fig1System(b, cb), Config{})
	defer s.Close()
	ctx := context.Background()
	for _, r := range hot {
		if _, err := s.Retrieve(ctx, r); err != nil {
			b.Fatal(err)
		}
	}
	if st := s.Stats(); st.TokenHits != 0 || st.EngineRetrievals != int64(len(hot)) {
		b.Fatalf("warming %d requests: %+v, want one walk each", len(hot), st)
	}
	var callers atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := callers.Add(1) * 13
		for pb.Next() {
			if _, err := s.Retrieve(ctx, hot[i%uint64(len(hot))]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	if st := s.Stats(); st.TokenHits != int64(b.N) {
		b.Fatalf("%d ops, %d token hits", b.N, st.TokenHits)
	}
}

// BenchmarkServeSequential is the baseline: one engine, one request at
// a time, no batching, no dedup, no token bypass. One op = the whole
// 512-request stream.
func BenchmarkServeSequential(b *testing.B) {
	cb, reqs := benchWorkload(b)
	eng := retrieval.NewEngine(cb, retrieval.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			if _, err := eng.Retrieve(req); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkServeBatch drives the same stream through the service as 64
// client-sized micro-batches over 8 shards. The win on a single CPU
// comes from singleflight dedup and the shard token caches — repeated
// signatures skip the linear list walk entirely; extra cores add shard
// parallelism on top. One op = the whole 512-request stream.
func BenchmarkServeBatch(b *testing.B) {
	cb, reqs := benchWorkload(b)
	s := New(cb, fig1System(b, cb), Config{Shards: 8, MaxBatch: 64})
	defer s.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < len(reqs); lo += 64 {
			out, err := s.RetrieveBatch(ctx, reqs[lo:lo+64])
			if err != nil {
				b.Fatal(err)
			}
			for _, o := range out {
				if o.Err != nil {
					b.Fatal(o.Err)
				}
			}
		}
	}
	b.StopTimer()
	st := s.Stats()
	b.ReportMetric(float64(st.TokenHits)/float64(b.N), "tokenhits/op")
	b.ReportMetric(float64(st.DedupHits)/float64(b.N), "deduphits/op")
}

// BenchmarkCommitFold measures one fold commit on churn_alloc's tree
// shape (24 types × 16 variants × 8 attributes): 24 observations, each
// moving a different attribute value by one LSB, trip the fold
// threshold, and the commit folds the revisions into the next epoch.
// One op = the 24 observations plus the commit they trip.
func BenchmarkCommitFold(b *testing.B) {
	cb, _, err := workload.GenCaseBase(workload.CaseBaseSpec{
		Types: 24, ImplsPerType: 16, AttrsPerImpl: 8, AttrUniverse: 12, ValueSpan: 1000, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	const revisions = 24
	s := New(cb, fig1System(b, cb), Config{Shards: 4,
		Learning: LearnConfig{Enabled: true, Alpha: 1, FoldThreshold: revisions}})
	defer s.Close()
	type key struct {
		t    casebase.TypeID
		impl casebase.ImplID
		attr attr.ID
	}
	rng := rand.New(rand.NewSource(5))
	var keys []key
	for len(keys) < revisions {
		ft := cb.Types()[rng.Intn(cb.NumTypes())]
		im := ft.Impls[rng.Intn(len(ft.Impls))]
		k := key{ft.ID, im.ID, im.Attrs[rng.Intn(len(im.Attrs))].ID}
		if !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := s.CaseBase()
		for _, k := range keys {
			ft, _ := cur.Type(k.t)
			im, _ := ft.Impl(k.impl)
			v, _ := im.Attr(k.attr)
			if d, _ := cur.Registry().Lookup(k.attr); v < d.Hi {
				v++
			} else {
				v--
			}
			err := s.Observe(learn.Observation{Type: k.t, Impl: k.impl,
				Measured: []attr.Pair{{ID: k.attr, Value: v}}})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if got := s.EpochStats().Folds; got != int64(b.N) {
		b.Fatalf("%d folds for %d ops", got, b.N)
	}
}
