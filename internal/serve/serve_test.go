package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"qosalloc/internal/alloc"
	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/learn"
	"qosalloc/internal/obs"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/rtsys"
	"qosalloc/internal/similarity"
	"qosalloc/internal/workload"
)

// fig1System builds the paper's fig. 1 style platform: 2-slot FPGA,
// DSP, GPP over a given case base.
func fig1System(t testing.TB, cb *casebase.CaseBase) *rtsys.System {
	t.Helper()
	repo := device.NewRepository(64)
	if err := repo.PopulateFromCaseBase(cb); err != nil {
		t.Fatal(err)
	}
	fpga := device.NewFPGA("fpga0", []device.Slot{
		{Slices: 1500, BRAMs: 8, Multipliers: 16},
		{Slices: 1500, BRAMs: 8, Multipliers: 16},
	}, 66)
	dsp := device.NewProcessor("dsp0", casebase.TargetDSP, 1000, 128*1024)
	gpp := device.NewProcessor("gpp0", casebase.TargetGPP, 1000, 256*1024)
	return rtsys.NewSystem(repo, fpga, dsp, gpp)
}

// genWorkload builds a moderate synthetic case base plus a repeat-heavy
// request stream exercising dedup and the token bypass.
func genWorkload(t testing.TB, nReqs int, repeat float64) (*casebase.CaseBase, *attr.Registry, []casebase.Request) {
	t.Helper()
	cb, reg, err := workload.GenCaseBase(workload.CaseBaseSpec{
		Types: 8, ImplsPerType: 5, AttrsPerImpl: 5, AttrUniverse: 6, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenRequests(cb, reg, workload.RequestStreamSpec{
		N: nReqs, ConstraintsPer: 3, RepeatFraction: repeat, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cb, reg, reqs
}

// TestRetrieveBatchBitIdenticalToSequential is the golden equivalence
// test of the two request paths. One stream goes through RetrieveBatch
// on one service (deduplicated, token-bypassed, sharded batches) and
// through Retrieve on another (token hits and walks on the caller's
// goroutine), first at epoch 1 and again after a CommitNow has folded an
// observation into the case base. Every answer of either path must be
// bit-identical to a fresh engine walk over the committed case base.
func TestRetrieveBatchBitIdenticalToSequential(t *testing.T) {
	cb, _, reqs := genWorkload(t, 240, 0.5)
	cfg := Config{Shards: 4, MaxBatch: 16, Learning: learnConfig(64, 0)}
	batched := New(cb, fig1System(t, cb), cfg)
	defer batched.Close()
	single := New(cb, fig1System(t, cb), cfg)
	defer single.Close()
	ft := cb.Types()[0]
	im := ft.Impls[0]
	p := im.Attrs[0]
	observed := learn.Observation{Type: ft.ID, Impl: im.ID,
		Measured: []attr.Pair{{ID: p.ID, Value: nudged(t, cb, p.ID, p.Value)}}}

	ctx := context.Background()
	same := func(a, b retrieval.Result) bool {
		return reflect.DeepEqual(a, b) && math.Float64bits(a.Similarity) == math.Float64bits(b.Similarity)
	}
	for epoch := uint64(1); epoch <= 2; epoch++ {
		if epoch == 2 {
			for _, s := range []*Service{batched, single} {
				if err := s.Observe(observed); err != nil {
					t.Fatal(err)
				}
				if e, err := s.CommitNow(); err != nil || e != epoch {
					t.Fatalf("CommitNow = %d, %v; want epoch %d", e, err, epoch)
				}
			}
		}
		eng := retrieval.NewEngine(batched.CaseBase(), retrieval.Options{})
		for lo := 0; lo < len(reqs); lo += 48 {
			hi := min(lo+48, len(reqs))
			out, err := batched.RetrieveBatch(ctx, reqs[lo:hi])
			if err != nil {
				t.Fatal(err)
			}
			for k, o := range out {
				req := reqs[lo+k]
				want, wantErr := eng.Retrieve(req)
				got, gotErr := single.Retrieve(ctx, req)
				if (o.Err == nil) != (wantErr == nil) || (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("epoch %d req %d: batched err %v, Retrieve err %v, fresh walk err %v", epoch, lo+k, o.Err, gotErr, wantErr)
				}
				if !same(o.Result, want) || !same(got, want) {
					t.Fatalf("epoch %d req %d: batched %+v, Retrieve %+v, fresh walk %+v", epoch, lo+k, o.Result, got, want)
				}
			}
		}
	}

	n := 2 * int64(len(reqs))
	st := batched.Stats()
	if st.TokenHits == 0 {
		t.Error("repeat-heavy stream produced no token bypasses")
	}
	if st.DedupHits == 0 {
		t.Error("repeat-heavy stream produced no in-batch dedups")
	}
	if st.EngineRetrievals+st.TokenHits+st.DedupHits != n {
		t.Errorf("walks(%d)+tokens(%d)+dedups(%d) != %d requests",
			st.EngineRetrievals, st.TokenHits, st.DedupHits, n)
	}
	if st.EngineRetrievals >= n {
		t.Errorf("no retrieval was saved: %d walks for %d requests", st.EngineRetrievals, n)
	}
	st = single.Stats()
	if st.TokenHits == 0 || st.EngineRetrievals == 0 || st.TokenHits+st.EngineRetrievals != n || st.Enqueued != n || st.BatchedJobs != n {
		t.Errorf("Retrieve path over %d requests: stats %+v, want token hits and walks summing to every request", n, st)
	}
}

// TestRecoveryScoresUnderServiceMeasure pins that degrade-and-retry
// ranks on the service's own engine: with a non-default local measure,
// a task stranded by a device fault is recovered onto a variant whose
// Similarity is that variant's score under the service's measure, not
// under eq. (1).
func TestRecoveryScoresUnderServiceMeasure(t *testing.T) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 1, Engine: retrieval.Options{Local: similarity.Quadratic{}}}
	s := New(cb, fig1System(t, cb), cfg)
	defer s.Close()
	req := casebase.PaperRequest()
	d, err := s.Allocate(context.Background(), "app", req, 5)
	if err != nil {
		t.Fatal(err)
	}
	var recs []alloc.Recovery
	s.Exclusive(func() {
		if _, err := s.System().FailDevice(d.Device); err != nil {
			t.Error(err)
		}
		recs = s.Manager().RecoverFromFaults()
	})
	if len(recs) != 1 || recs[0].Decision == nil {
		t.Fatalf("recoveries = %+v, want one re-placed task", recs)
	}
	got := recs[0].Decision
	if got.Impl == d.Impl {
		t.Fatalf("recovered onto impl %d, the variant on the failed device", got.Impl)
	}
	all, err := retrieval.NewEngine(cb, cfg.Engine).RetrieveAll(req)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(all, func(r retrieval.Result) bool { return r.Impl == got.Impl })
	if i < 0 {
		t.Fatalf("recovered impl %d is not a variant of the type", got.Impl)
	}
	if want := all[i].Similarity; math.Float64bits(got.Similarity) != math.Float64bits(want) {
		t.Errorf("recovered impl %d at S = %v, the service's measure scores it %v", got.Impl, got.Similarity, want)
	}
}

// TestInlineHitAccounting pins the inline path's bookkeeping: a token
// hit answered on the caller's goroutine counts as an admitted batch of
// one token-hit job, with no walk.
func TestInlineHitAccounting(t *testing.T) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	req := casebase.PaperRequest()
	ctx := context.Background()
	for _, c := range []struct {
		name   string
		opt    retrieval.Options
		inline int64
	}{
		{"tokens", retrieval.Options{}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New(cb, fig1System(t, cb), Config{Shards: 2, Engine: c.opt})
			defer s.Close()
			reg := obs.NewRegistry()
			s.Instrument(reg)
			first, err := s.Retrieve(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			before := s.Stats()
			again, err := s.Retrieve(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, first) {
				t.Fatalf("repeat answered %+v, first call %+v", again, first)
			}
			after := s.Stats()
			inline, _ := reg.CounterValue("qos_serve_inline_hits_total")
			if inline != c.inline {
				t.Fatalf("inline hits = %d, want %d", inline, c.inline)
			}
			d := func(a, b int64) int64 { return a - b }
			got := []int64{
				d(after.Enqueued, before.Enqueued), d(after.Batches, before.Batches),
				d(after.BatchedJobs, before.BatchedJobs), d(after.TokenHits, before.TokenHits),
				d(after.EngineRetrievals, before.EngineRetrievals),
			}
			want := []int64{1, 1, 1, c.inline, 1 - c.inline}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("repeat moved enqueued/batches/jobs/token hits/walks by %v, want %v", got, want)
			}
		})
	}
}

// TestInlineAnswerCountsOnce pins that an answer on the caller's
// goroutine writes one stripe counter: after N token hits and M inline
// walks (Retrieve misses and Allocates) on a fresh service, the fields
// only pre-formed batches write — batches, the batch-size histogram,
// tokenHits, walks and the service's maxBatch — still read 0, the
// inline counters read N and M, and Stats derives the totals each
// answer used to write: N+M enqueued batches of one job, N token hits
// and M walks.
func TestInlineAnswerCountsOnce(t *testing.T) {
	cb, _, reqs := genWorkload(t, 8, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 4})
	defer s.Close()
	ctx := context.Background()
	const hitsPer = 3
	var n, m int64
	for _, r := range reqs[:4] {
		for i := 0; i <= hitsPer; i++ { // a walk, then hits
			if _, err := s.Retrieve(ctx, r); err != nil {
				t.Fatal(err)
			}
		}
		n += hitsPer
		m++
	}
	for _, r := range reqs[4:7] {
		d, err := s.Allocate(ctx, "app", r, 5)
		if err == nil {
			err = s.Release(d.Task.ID)
		}
		if err != nil && !isNoFeasible(err) {
			t.Fatal(err)
		}
		m++
	}

	var hits, walks int64
	for i, sh := range s.shards {
		p := &sh.stripe
		if b, c, h, w := p.batches.Load(), p.batchSize.Count(), p.tokenHits.Load(), p.walks.Load(); b|c|h|w != 0 {
			t.Errorf("shard %d: batches %d, batch-size count %d, token hits %d, walks %d; inline answers must write none", i, b, c, h, w)
		}
		hits += p.inlineHits.Load()
		walks += p.inlineWalks.Load()
	}
	if mb := s.maxBatch.Load(); mb != 0 {
		t.Errorf("maxBatch = %d, want 0: only pre-formed batches write it", mb)
	}
	if hits != n || walks != m {
		t.Errorf("inline hits %d, walks %d; want %d, %d", hits, walks, n, m)
	}
	st := s.Stats()
	want := Stats{Enqueued: n + m, Batches: n + m, BatchedJobs: n + m, TokenHits: n, MaxBatch: 1,
		EngineRetrievals: m, Allocated: st.Allocated, AllocFailed: st.AllocFailed}
	if st != want || st.Allocated+st.AllocFailed != 3 {
		t.Errorf("Stats = %+v, want %+v with 3 allocation outcomes", st, want)
	}
}

// TestInlineHitSkipsBusyShard pins that a Retrieve never waits for a
// batch: with the shard mutex held, as by a batch mid-walk, a repeat of
// a resolved request is answered from its token and a new request by a
// walk of its own, both on the caller's goroutine.
func TestInlineHitSkipsBusyShard(t *testing.T) {
	cb, _, reqs := genWorkload(t, 2, 0)
	eng := retrieval.NewEngine(cb, retrieval.Options{})
	s := New(cb, fig1System(t, cb), Config{Shards: 1})
	defer s.Close()
	ctx := context.Background()
	first, err := s.Retrieve(ctx, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Retrieve(reqs[1])
	if err != nil {
		t.Fatal(err)
	}

	sh := s.shards[0]
	sh.mu.Lock() // a batch holds the shard
	defer sh.mu.Unlock()
	again, err := s.Retrieve(ctx, reqs[0])
	if err != nil || !reflect.DeepEqual(again, first) {
		t.Errorf("repeat answered %+v (err %v), first call %+v", again, err, first)
	}
	miss, err := s.Retrieve(ctx, reqs[1])
	if err != nil || !reflect.DeepEqual(miss, want) {
		t.Errorf("new request answered %+v (err %v), a fresh walk gives %+v", miss, err, want)
	}
	st := s.Stats()
	if st.TokenHits != 1 || st.EngineRetrievals != 2 || st.Enqueued != 3 || st.BatchedJobs != 3 {
		t.Errorf("with the shard busy: stats %+v, want 1 token hit and 2 walks over 3 jobs", st)
	}
}

// TestAllocateWalksBesideBatch pins that an Allocate never waits for a
// batch: with the shard mutex held, as by a batch mid-walk, it walks its
// candidate list on the caller's goroutine and places the paper's best
// variant.
func TestAllocateWalksBesideBatch(t *testing.T) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	s := New(cb, fig1System(t, cb), Config{Shards: 1})
	defer s.Close()
	sh := s.shards[0]
	sh.mu.Lock() // a batch holds the shard
	defer sh.mu.Unlock()
	d, err := s.Allocate(context.Background(), "mp3", casebase.PaperRequest(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Impl != 2 || d.Device != "dsp0" {
		t.Errorf("Allocate placed %+v, want impl 2 on dsp0", d)
	}
	st := s.Stats()
	if n := sh.stripe.inlineWalks.Load(); n != 1 || st.Enqueued != 1 || st.EngineRetrievals != 1 || st.BatchedJobs != 1 {
		t.Errorf("Allocate beside a batch: inline walks %d, stats %+v", n, st)
	}
}

// TestAllocatePicksTableOneBest mirrors the alloc-layer golden: the
// paper's request through the service lands impl 2 on the DSP.
func TestAllocatePicksTableOneBest(t *testing.T) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	s := New(cb, fig1System(t, cb), Config{})
	defer s.Close()

	d, err := s.Allocate(context.Background(), "mp3", casebase.PaperRequest(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Impl != 2 || d.Target != casebase.TargetDSP || d.Device != "dsp0" {
		t.Errorf("decision = %+v, want DSP impl 2 on dsp0", d)
	}
	st := s.Stats()
	if st.Allocated != 1 || st.AllocFailed != 0 {
		t.Errorf("stats = %+v", st)
	}
	if ms := s.Manager().Stats(); ms.Requests != 1 || ms.Placed != 1 {
		t.Errorf("manager stats = %+v", ms)
	}
}

// runAllocBatches drives one service through the stream in fixed chunks
// with releases between chunks, returning a decision fingerprint.
func runAllocBatches(t *testing.T, s *Service, reqs []casebase.Request) []string {
	t.Helper()
	ctx := context.Background()
	var fp []string
	for lo := 0; lo < len(reqs); lo += 32 {
		hi := min(lo+32, len(reqs))
		out, err := s.AllocateBatch(ctx, fmt.Sprintf("app%d", lo/32), reqs[lo:hi], 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range out {
			if r.Err != nil {
				fp = append(fp, "err:"+fmt.Sprintf("%T", r.Err))
				continue
			}
			fp = append(fp, fmt.Sprintf("%d/%d@%s", r.Decision.Impl, r.Decision.Target, r.Decision.Device))
			if err := s.Release(r.Decision.Task.ID); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Advance(s.System().Now() + 500); err != nil {
			t.Fatal(err)
		}
	}
	return fp
}

// TestAllocateBatchDeterministic runs the same stream through two
// independently built services and requires identical decisions and
// identical batching/bypass accounting — the property that lets the
// serve experiment pin its outcome.
func TestAllocateBatchDeterministic(t *testing.T) {
	run := func() ([]string, Stats) {
		cb, _, reqs := genWorkload(t, 96, 0.4)
		s := New(cb, fig1System(t, cb), Config{Shards: 4, MaxBatch: 8})
		defer s.Close()
		fp := runAllocBatches(t, s, reqs)
		return fp, s.Stats()
	}
	fp1, st1 := run()
	fp2, st2 := run()
	if !reflect.DeepEqual(fp1, fp2) {
		t.Fatalf("decision sequences diverged:\n%v\n%v", fp1, fp2)
	}
	if st1 != st2 {
		t.Fatalf("stats diverged:\n%+v\n%+v", st1, st2)
	}
	if st1.Batches == 0 || st1.BatchedJobs != 96 {
		t.Errorf("stats = %+v", st1)
	}
}

// TestOverloadShedsTyped pins admission control: with the single
// shard's walks in flight already at MaxQueue, a miss must be refused
// with a typed *ErrOverload carrying a retry hint, while a token hit,
// which walks nothing, is still answered.
func TestOverloadShedsTyped(t *testing.T) {
	cb, _, reqs := genWorkload(t, 4, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 1, MaxQueue: 1})
	defer s.Close()
	ctx := context.Background()
	first, err := s.Retrieve(ctx, reqs[0])
	if err != nil {
		t.Fatal(err)
	}

	sh := s.shards[0]
	sh.walkers.Store(1) // a walk in flight fills the bound
	_, err = s.Retrieve(ctx, reqs[1])
	var ov *ErrOverload
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v, want *ErrOverload", err)
	}
	if ov.Shard != 0 || ov.QueueLen != 1 || ov.RetryAfter != retryAfter(1) {
		t.Errorf("overload = %+v", ov)
	}
	if !strings.Contains(ov.Error(), "retry after") {
		t.Errorf("Error() = %q", ov.Error())
	}
	if _, err := s.Allocate(ctx, "app", reqs[1], 5); !errors.As(err, &ov) {
		t.Errorf("Allocate err = %v, want *ErrOverload", err)
	}
	if again, err := s.Retrieve(ctx, reqs[0]); err != nil || !reflect.DeepEqual(again, first) {
		t.Errorf("token hit under overload answered %+v (err %v), want %+v", again, err, first)
	}
	if st := s.Stats(); st.Shed != 2 || st.TokenHits != 1 {
		t.Errorf("Shed = %d, TokenHits = %d; want 2 and 1", st.Shed, st.TokenHits)
	}
	sh.walkers.Store(0)
	if _, err := s.Retrieve(ctx, reqs[1]); err != nil {
		t.Errorf("Retrieve once the walk finished: %v", err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestContextCancellation covers the entry guard and the batch entry
// points: a dead context yields ErrCanceled wrapping the cause.
func TestContextCancellation(t *testing.T) {
	cb, _, reqs := genWorkload(t, 2, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 1})
	defer s.Close()

	cause := errors.New("client gave up")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)

	if _, err := s.Retrieve(ctx, reqs[0]); !errors.Is(err, retrieval.ErrCanceled) || !errors.Is(err, cause) {
		t.Errorf("Retrieve err = %v", err)
	}
	if _, err := s.RetrieveBatch(ctx, reqs); !errors.Is(err, retrieval.ErrCanceled) {
		t.Errorf("RetrieveBatch err = %v", err)
	}
	if _, err := s.AllocateBatch(ctx, "app", reqs, 5); !errors.Is(err, retrieval.ErrCanceled) {
		t.Errorf("AllocateBatch err = %v", err)
	}
	if _, err := s.Allocate(ctx, "app", reqs[0], 5); !errors.Is(err, retrieval.ErrCanceled) {
		t.Errorf("Allocate err = %v", err)
	}
}

// TestCloseRejectsAndIsIdempotent pins the shutdown contract.
func TestCloseRejectsAndIsIdempotent(t *testing.T) {
	cb, _, reqs := genWorkload(t, 1, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 2})
	s.Close()
	s.Close() // idempotent
	if _, err := s.Retrieve(context.Background(), reqs[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("Retrieve after Close = %v, want ErrClosed", err)
	}
	if _, err := s.RetrieveBatch(context.Background(), reqs); !errors.Is(err, ErrClosed) {
		t.Errorf("RetrieveBatch after Close = %v, want ErrClosed", err)
	}
}

// TestInstrumentExportsServeSeries wires a registry mid-flight and
// checks the serve metric family shows up in the Prometheus exposition.
func TestInstrumentExportsServeSeries(t *testing.T) {
	cb, _, reqs := genWorkload(t, 40, 0.5)
	s := New(cb, fig1System(t, cb), Config{Shards: 2, MaxBatch: 8})
	defer s.Close()

	reg := obs.NewRegistry()
	s.Instrument(reg)
	if _, err := s.RetrieveBatch(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"qos_serve_batches_total",
		"qos_serve_batch_size_bucket",
		"qos_serve_draining",
		"qos_serve_epoch",
		"qos_serve_token_hits_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if v, ok := reg.CounterValue("qos_serve_batches_total"); !ok || v == 0 {
		t.Errorf("qos_serve_batches_total = %d, %v", v, ok)
	}
}

// TestServeRaceStress hammers the service from 64 client goroutines
// while a driver advances the sim clock and placements run — the test
// is mainly for -race, but also checks every retrieval succeeds.
func TestServeRaceStress(t *testing.T) {
	cb, _, reqs := genWorkload(t, 64, 0.3)
	s := New(cb, fig1System(t, cb), Config{Shards: 8, MaxBatch: 8, MaxQueue: 512})
	defer s.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for c := 0; c < 64; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				req := reqs[(c*7+i)%len(reqs)]
				if _, err := s.Retrieve(ctx, req); err != nil {
					var ov *ErrOverload
					if errors.As(err, &ov) {
						continue // shed under pressure is legitimate
					}
					errc <- fmt.Errorf("client %d: %w", c, err)
					return
				}
			}
		}(c)
	}
	// Driver goroutine: clock ticks and occasional allocations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := s.Advance(s.System().Now() + 100); err != nil {
				errc <- err
				return
			}
			d, err := s.Allocate(ctx, "driver", reqs[i], 5)
			if err == nil {
				if err := s.Release(d.Task.ID); err != nil {
					errc <- err
					return
				}
			} else if !isNoFeasible(err) {
				var ov *ErrOverload
				if !errors.As(err, &ov) {
					errc <- err
					return
				}
			}
			_ = s.Stats()
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func isNoFeasible(err error) bool {
	var nf *alloc.ErrNoFeasible
	return errors.As(err, &nf)
}

// TestRetryAfterScalesWithQueueDepth pins the overload hint's shape:
// monotone non-decreasing in the observed queue depth (a deeper queue
// never promises a sooner retry), and strictly later behind a deeper
// backlog.
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	prev := device.Micros(0)
	for q := 0; q <= 64; q++ {
		got := retryAfter(q)
		if got == 0 {
			t.Fatalf("retryAfter(%d) = 0; the hint must always buy the backlog time", q)
		}
		if got < prev {
			t.Fatalf("retryAfter(%d) = %d < retryAfter(%d) = %d; hint must be monotone in depth", q, got, q-1, prev)
		}
		prev = got
	}
	if a, b := retryAfter(0), retryAfter(8); b <= a {
		t.Fatalf("8 jobs ahead did not push the hint: retryAfter(0)=%d, retryAfter(8)=%d", a, b)
	}
	if a, b := retryAfter(0), retryAfter(40); b <= a {
		t.Fatalf("40 jobs ahead did not push the hint: %d vs %d", a, b)
	}
}

// TestErrDrainingIdentity pins the sentinel contract: ErrDraining is
// its own errors.Is target and also satisfies ErrClosed, so pre-existing
// shutdown checks keep working while new callers can tell drain apart.
func TestErrDrainingIdentity(t *testing.T) {
	if !errors.Is(ErrDraining, ErrClosed) {
		t.Error("ErrDraining must wrap ErrClosed")
	}
	if !errors.Is(ErrDraining, ErrDraining) {
		t.Error("ErrDraining must match itself")
	}
	if errors.Is(ErrClosed, ErrDraining) {
		t.Error("plain ErrClosed must not read as draining")
	}
	if !strings.Contains(ErrDraining.Error(), "draining") {
		t.Errorf("Error() = %q, want it to mention draining", ErrDraining.Error())
	}
}

// TestDrainWaitsForAdmittedCalls pins the graceful-drain contract. A
// shard's admitted count, held here, stands in for a call inside the
// drain fence. Once Close begins, every entry point refuses new work
// with ErrDraining (distinguishable from overload, still matching
// ErrClosed), while Close waits until the admitted call counts itself
// out.
func TestDrainWaitsForAdmittedCalls(t *testing.T) {
	cb, _, reqs := genWorkload(t, 4, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 1})

	admitted := &s.shards[0].stripe.admitted
	admitted.Add(1) // a call inside the fence
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	waitFor(t, "drain to begin", s.Draining)

	ctx := context.Background()
	_, errRetrieve := s.Retrieve(ctx, reqs[0])
	_, errAllocate := s.Allocate(ctx, "app", reqs[1], 5)
	_, errRetrieveBatch := s.RetrieveBatch(ctx, reqs)
	_, errAllocateBatch := s.AllocateBatch(ctx, "app", reqs, 5)
	for name, err := range map[string]error{
		"Retrieve": errRetrieve, "Allocate": errAllocate,
		"RetrieveBatch": errRetrieveBatch, "AllocateBatch": errAllocateBatch,
	} {
		if !errors.Is(err, ErrDraining) || !errors.Is(err, ErrClosed) {
			t.Errorf("%s during drain = %v, want ErrDraining (matching ErrClosed)", name, err)
		}
		var ov *ErrOverload
		if errors.As(err, &ov) {
			t.Errorf("%s: a drain rejection must not read as overload: %v", name, err)
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a call was still admitted")
	default:
	}

	admitted.Add(-1) // the call finishes
	<-closed
	if st := s.Stats(); st.Shed != 0 || st.Enqueued != 0 || st.Allocated+st.AllocFailed != 0 {
		t.Errorf("stats = %+v; drain rejections must be counted nowhere", st)
	}
}

// TestDrainFlushesQueuedJobs pins that work admitted before Close
// settles with its result during the drain. An Allocate that has walked
// its candidates is held at the serialization lock; Close begins, new
// work is refused with ErrDraining, and Close does not return until the
// held Allocate has placed the paper's best variant.
func TestDrainFlushesQueuedJobs(t *testing.T) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	s := New(cb, fig1System(t, cb), Config{Shards: 1})

	ctx := context.Background()
	s.allocMu.Lock() // hold the admitted Allocate before its placement
	type outcome struct {
		d   *alloc.Decision
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		d, err := s.Allocate(ctx, "mp3", casebase.PaperRequest(), 5)
		done <- outcome{d, err}
	}()
	waitFor(t, "Allocate to be admitted", func() bool { return s.Stats().Enqueued == 1 })

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	waitFor(t, "drain to begin", s.Draining)
	if _, err := s.Retrieve(ctx, casebase.PaperRequest()); !errors.Is(err, ErrDraining) {
		t.Errorf("Retrieve during drain = %v, want ErrDraining", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned before the admitted Allocate placed")
	default:
	}

	s.allocMu.Unlock() // the held Allocate must settle with its decision
	o := <-done
	<-closed
	if o.err != nil {
		t.Fatalf("admitted Allocate got %v during drain; admitted work must complete", o.err)
	}
	if o.d.Impl != 2 || o.d.Device != "dsp0" {
		t.Errorf("admitted Allocate placed %+v, want impl 2 on dsp0", o.d)
	}
	if st := s.Stats(); st.Allocated != 1 || st.AllocFailed != 0 || st.Shed != 0 {
		t.Errorf("stats = %+v; want the one placement, and no drain rejection counted as a shed", st)
	}
}

// TestDrainMetricsExported pins the drain's observability: the draining
// gauge reads 0 while serving and 1 from the moment Close begins, and no
// shutdown-flush counter is exported (admitted calls finish on their own
// goroutines; there is no queue to flush).
func TestDrainMetricsExported(t *testing.T) {
	cb, _, _ := genWorkload(t, 2, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 1})
	reg := obs.NewRegistry()
	s.Instrument(reg)
	if got := reg.Snapshot().Gauges["qos_serve_draining"]; got != 0 {
		t.Errorf("qos_serve_draining = %d while serving, want 0", got)
	}

	admitted := &s.shards[0].stripe.admitted
	admitted.Add(1) // a call inside the fence keeps the drain open
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	waitFor(t, "drain to begin", s.Draining)
	if got := reg.Snapshot().Gauges["qos_serve_draining"]; got != 1 {
		t.Errorf("qos_serve_draining = %d during the drain, want 1", got)
	}
	admitted.Add(-1)
	<-closed

	if got := reg.Snapshot().Gauges["qos_serve_draining"]; got != 1 {
		t.Errorf("qos_serve_draining = %d after the drain, want 1", got)
	}
	if got, ok := reg.CounterValue("qos_serve_drain_flushed_total"); ok {
		t.Errorf("qos_serve_drain_flushed_total exported (= %d); the shutdown flush is gone", got)
	}
}

// TestJobKeyDistinct pins the singleflight key: kind-qualified, with the
// candidate depth in the key, so a best-match walk never masks an n-best
// walk and n-best walks of different depth never share a result, while
// jobs of equal kind, depth and request hash share one key.
func TestJobKeyDistinct(t *testing.T) {
	h := retrieval.Hash(casebase.PaperRequest())
	jobs := []job{
		{kind: jobRetrieve, n: 3, hash: h},
		{kind: jobCandidates, n: 3, hash: h},
		{kind: jobCandidates, n: 12, hash: 0},
	}
	for i := range jobs {
		twin := job{ctx: context.Background(), kind: jobs[i].kind, n: jobs[i].n, hash: jobs[i].hash}
		if jobs[i].key() != twin.key() {
			t.Errorf("equal jobs %+v and %+v have different keys", jobs[i], twin)
		}
		for k := i + 1; k < len(jobs); k++ {
			if jobs[i].key() == jobs[k].key() {
				t.Errorf("jobs %+v and %+v share key %+v", jobs[i], jobs[k], jobs[i].key())
			}
		}
	}
}

// TestHashCollisionWalksBoth plants hash collisions on a shard. A token
// stored under another request's hash must not serve that request, and
// a batch of two different requests that share a hash must walk
// both: neither the singleflight map nor the token table may pair them.
func TestHashCollisionWalksBoth(t *testing.T) {
	cb, _, reqs := genWorkload(t, 64, 0)
	eng := retrieval.NewEngine(cb, retrieval.Options{})
	a := reqs[0]
	want, err := eng.Retrieve(a)
	if err != nil {
		t.Fatal(err)
	}
	var b casebase.Request
	var wantB retrieval.Result
	for _, r := range reqs[1:] {
		if wantB, err = eng.Retrieve(r); err == nil && wantB.Impl != want.Impl {
			b = r
			break
		}
	}
	if b.Constraints == nil {
		t.Fatal("no request retrieves a different variant from reqs[0]")
	}
	s := New(cb, fig1System(t, cb), Config{Shards: 1})
	defer s.Close()
	sh := s.shards[0]
	h := retrieval.Hash(b)

	tokens := s.snap.Load().tokens[0]
	tokens.Store(h, a, retrieval.Token{Type: want.Type, Impl: want.Impl, Similarity: want.Similarity})
	if tok, ok := tokens.Lookup(h, b); ok {
		t.Fatalf("b was served a's token %+v", tok)
	}
	tokens.InvalidateAll()

	ctx := context.Background()
	ja := &job{ctx: ctx, kind: jobRetrieve, req: a, hash: h}
	jb := &job{ctx: ctx, kind: jobRetrieve, req: b, hash: h}
	s.runBatch(sh, []*job{ja, jb})
	ra, rb := ja.res, jb.res
	if ra.err != nil || rb.err != nil {
		t.Fatal(ra.err, rb.err)
	}
	if !reflect.DeepEqual(ra.best, want) || !reflect.DeepEqual(rb.best, wantB) {
		t.Errorf("colliding batch answered %+v and %+v; fresh walks give %+v and %+v", ra.best, rb.best, want, wantB)
	}
	if st := s.Stats(); st.EngineRetrievals != 2 || st.DedupHits != 0 || st.TokenHits != 0 {
		t.Errorf("colliding batch: %d walks, %d dedup hits, %d token hits; want 2, 0, 0",
			st.EngineRetrievals, st.DedupHits, st.TokenHits)
	}
}
