package serve

import (
	"context"
	"math/rand"
	"slices"
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
