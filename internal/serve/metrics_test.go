package serve

import (
	"context"
	"testing"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/learn"
	"qosalloc/internal/obs"
)

// TestStatsEqualAttachedSeries drives a mixed workload through an
// instrumented service (token misses and hits, dedup, a canceled job,
// placed and failed allocations, a shed request, a drain flush, and
// commits of all four reasons) and checks that every Stats and
// EpochStats field with a series reads the same value as that series:
// each fact is counted once, so the two views cannot drift.
func TestStatsEqualAttachedSeries(t *testing.T) {
	cb, _, reqs := genWorkload(t, 8, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 1, MaxBatch: 2, MaxQueue: 1, Learning: learnConfig(2, 0)})
	reg := obs.NewRegistry()
	s.Instrument(reg)
	ctx := context.Background()

	for _, r := range []casebase.Request{reqs[0], reqs[0]} { // miss, then inline hit
		if _, err := s.Retrieve(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.RetrieveBatch(ctx, []casebase.Request{reqs[1], reqs[1]}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Retrieve(&lateCancel{Context: ctx}, reqs[2]); err == nil {
		t.Fatal("Retrieve on a late-canceled context succeeded")
	}
	d, err := s.Allocate(ctx, "app", reqs[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(d.Task.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Allocate(ctx, "app", invalidRequests(reqs[0])[0], 5); err == nil {
		t.Fatal("Allocate of an unknown type succeeded")
	}

	ft := cb.Types()[0]
	im := ft.Impls[0]
	for i := 0; i < 2; i++ { // the second observation trips the fold
		p := im.Attrs[i]
		err := s.Observe(learn.Observation{Type: ft.ID, Impl: im.ID,
			Measured: []attr.Pair{{ID: p.ID, Value: nudged(t, cb, p.ID, p.Value)}}})
		if err != nil {
			t.Fatal(err)
		}
	}
	id, err := s.Retain(ft.ID, casebase.Implementation{Name: "retained", Target: im.Target,
		Attrs: append([]attr.Pair(nil), im.Attrs...), Foot: im.Foot}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Retire(ft.ID, id, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CommitNow(); err != nil {
		t.Fatal(err)
	}

	// Wedge the single shard: the worker takes one job and, busy, waits
	// on the shard mutex; a second job fills the queue, and a third is
	// shed.
	// Close then begins the drain, and unwedging flushes the queued job.
	sh := s.shards[0]
	sh.mu.Lock()
	done := make(chan error, 2)
	go func() { _, err := s.Retrieve(ctx, reqs[3]); done <- err }()
	waitFor(t, "worker to take the first job", func() bool { return s.met.Load().busy[0].Load() == 1 })
	go func() { _, err := s.Retrieve(ctx, reqs[4]); done <- err }()
	waitFor(t, "second job to fill the queue", func() bool { return len(sh.q) == 1 })
	if _, err := s.Retrieve(ctx, reqs[5]); err == nil {
		t.Fatal("Retrieve past a full queue was not shed")
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	waitFor(t, "drain to begin", func() bool {
		select {
		case <-s.drain:
			return true
		default:
			return false
		}
	})
	sh.mu.Unlock()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("queued caller %d: %v", i, err)
		}
	}
	<-closed

	st, es := s.Stats(), s.EpochStats()
	snap := reg.Snapshot()
	series := func(names ...string) int64 {
		var v int64
		for _, n := range names {
			c, ok := snap.Counters[n]
			if !ok {
				t.Errorf("series %s is not registered", n)
			}
			v += c
		}
		return v
	}
	const commits = "qos_serve_commits_total"
	for _, c := range []struct {
		field string
		got   int64
		want  int64
	}{
		{"Enqueued", st.Enqueued, series("qos_serve_enqueued_total")},
		{"Shed", st.Shed, series("qos_serve_shed_total")},
		{"Batches", st.Batches, series("qos_serve_batches_total")},
		{"Batches (histogram count)", st.Batches, snap.Histograms["qos_serve_batch_size"].Count},
		{"BatchedJobs (histogram sum)", st.BatchedJobs, snap.Histograms["qos_serve_batch_size"].Sum},
		{"DedupHits", st.DedupHits, series("qos_serve_dedup_hits_total")},
		{"TokenHits", st.TokenHits, series("qos_serve_token_hits_total")},
		{"Canceled", st.Canceled, series("qos_serve_canceled_total")},
		{"DrainFlushed", st.DrainFlushed, series("qos_serve_drain_flushed_total")},
		{"Allocated", st.Allocated, series(`qos_serve_allocations_total{outcome="placed"}`)},
		{"AllocFailed", st.AllocFailed, series(`qos_serve_allocations_total{outcome="failed"}`)},
		{"Epoch", int64(es.Epoch), snap.Gauges["qos_serve_epoch"]},
		{"Commits", es.Commits, series(commits+`{reason="fold"}`, commits+`{reason="structural"}`, commits+`{reason="manual"}`)},
		{"Folds", es.Folds, series(commits + `{reason="fold"}`)},
		{"Retained+Retired", es.Retained + es.Retired, series(commits + `{reason="structural"}`)},
		{"Observations", es.Observations, series("qos_serve_observations_total")},
		{"FoldedObs", es.FoldedObs, series("qos_serve_folded_attrs_total")},
		{"StaleRetries", es.StaleRetries, series("qos_serve_stale_retries_total")},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, but its series reads %d", c.field, c.got, c.want)
		}
		if c.got == 0 && c.field != "StaleRetries" {
			t.Errorf("%s is 0: the workload left it unexercised", c.field)
		}
	}
	if es.Commits != 4 || es.Folds != 1 || es.Retained != 1 || es.Retired != 1 {
		t.Errorf("epoch stats = %+v, want one commit of each reason", es)
	}
	if inline := series("qos_serve_inline_hits_total"); inline == 0 || inline > st.TokenHits {
		t.Errorf("inline hits = %d, want within (0, TokenHits=%d]", inline, st.TokenHits)
	}
}
