package serve

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/learn"
	"qosalloc/internal/obs"
)

// updateGolden rewrites the /metrics goldens under testdata instead of
// comparing against them.
var updateGolden = flag.Bool("update", false, "rewrite the /metrics goldens under testdata")

// TestStatsEqualAttachedSeries drives a mixed workload through an
// instrumented service (token misses and hits, dedup, a canceled batch
// job, placed and failed allocations, a shed request, a drain, and
// commits of all four reasons) and checks that every Stats and
// EpochStats field with a series reads the same value as that series:
// each fact is counted once, so the two views cannot drift. The last
// epoch's engine, the manager's, must report the retrieval series of
// every epoch's walks: all epochs count into one bundle. It runs at one
// shard and at four, where the hot-path counters and the batch-size
// histogram are summed over the shards' stripes. The whole exposition
// must then equal its golden.
func TestStatsEqualAttachedSeries(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { statsEqualAttachedSeries(t, shards) })
	}
}

func statsEqualAttachedSeries(t *testing.T, shards int) {
	cb, _, reqs := genWorkload(t, 64, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: shards, MaxBatch: 2, MaxQueue: 1, Learning: learnConfig(2, 0)})
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
	if _, err := s.RetrieveBatch(&lateCancel{Context: ctx}, reqs[2:3]); err == nil {
		t.Fatal("RetrieveBatch on a late-canceled context succeeded")
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

	// A walk in flight on reqs[3]'s shard fills its MaxQueue of one, so
	// a miss there is shed.
	sh := s.shardFor(reqs[3].Type)
	sh.walkers.Add(1)
	var ov *ErrOverload
	if _, err := s.Retrieve(ctx, reqs[3]); !errors.As(err, &ov) {
		t.Fatalf("Retrieve past a full shard = %v, want *ErrOverload", err)
	}
	sh.walkers.Add(-1)
	s.Close()

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
	rs := s.Manager().Engine().Stats()
	for _, c := range []struct {
		field  string
		got    int
		series string
	}{
		{"Retrievals", rs.Retrievals, "qos_retrieval_total"},
		{"ImplsScored", rs.ImplsScored, "qos_retrieval_impls_scored_total"},
		{"AttrsCompared", rs.AttrsCompared, "qos_retrieval_attrs_compared_total"},
		{"BelowThreshold", rs.BelowThreshold, "qos_retrieval_below_threshold_total"},
	} {
		if want := series(c.series); int64(c.got) != want {
			t.Errorf("engine %s = %d, but %s reads %d", c.field, c.got, c.series, want)
		}
	}
	if rs.Retrievals != int(st.EngineRetrievals) {
		t.Errorf("engine Retrievals = %d, want the service's %d walks", rs.Retrievals, st.EngineRetrievals)
	}

	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", fmt.Sprintf("metrics_shards%d.prom", shards))
	if *updateGolden {
		if err := os.WriteFile(golden, prom.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prom.Bytes(), want) {
		t.Errorf("/metrics differs from %s:\n%s", golden, prom.String())
	}
}

// TestShardLayout pins the stripe padding. The stripe must be the last
// field of shard and end in at least stripeSpan bytes of padding, so the
// hot words of a shard — every field before that pad — sit stripeSpan
// bytes or more before whatever the allocator places next, which may be
// another shard. A field added after the pad, or a pad cut short, fails
// here. The live shards of a service must then have no 128-byte span in
// which two of them write.
func TestShardLayout(t *testing.T) {
	var sh shard
	if end := unsafe.Offsetof(sh.stripe) + unsafe.Sizeof(sh.stripe); end != unsafe.Sizeof(sh) {
		t.Fatalf("stripe ends at byte %d of a %d-byte shard: it must be the last field", end, unsafe.Sizeof(sh))
	}
	st := reflect.TypeOf(stripe{})
	pad := st.Field(st.NumField() - 1)
	if pad.Name != "_" || pad.Type.Kind() != reflect.Array || pad.Type.Elem().Kind() != reflect.Uint8 || pad.Type.Size() < stripeSpan {
		t.Fatalf("stripe's last field is %s %v: want a blank byte array of at least %d bytes", pad.Name, pad.Type, stripeSpan)
	}
	hot := unsafe.Offsetof(sh.stripe) + pad.Offset // bytes of a shard before its pad

	cb, _, _ := genWorkload(t, 1, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 8})
	defer s.Close()
	owner := make(map[uintptr]int) // 128-byte span → the shard writing in it
	for i, p := range s.shards {
		lo := uintptr(unsafe.Pointer(p))
		for span := lo / stripeSpan; span <= (lo+hot-1)/stripeSpan; span++ {
			if j, ok := owner[span]; ok {
				t.Errorf("shards %d and %d both write the 128-byte span at %#x", j, i, span*stripeSpan)
			}
			owner[span] = i
		}
	}
}
