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
// test: every batched result — deduplicated, token-bypassed, sharded —
// must be bit-identical to a plain sequential engine walk.
func TestRetrieveBatchBitIdenticalToSequential(t *testing.T) {
	cb, _, reqs := genWorkload(t, 240, 0.5)
	eng := retrieval.NewEngine(cb, retrieval.Options{})

	s := New(cb, fig1System(t, cb), Config{Shards: 4, MaxBatch: 16})
	defer s.Close()

	ctx := context.Background()
	for lo := 0; lo < len(reqs); lo += 48 {
		hi := min(lo+48, len(reqs))
		out, err := s.RetrieveBatch(ctx, reqs[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		for k, o := range out {
			want, wantErr := eng.Retrieve(reqs[lo+k])
			if (o.Err == nil) != (wantErr == nil) {
				t.Fatalf("req %d: err = %v, sequential err = %v", lo+k, o.Err, wantErr)
			}
			if !reflect.DeepEqual(o.Result, want) {
				t.Fatalf("req %d: batched %+v != sequential %+v", lo+k, o.Result, want)
			}
		}
	}

	st := s.Stats()
	if st.TokenHits == 0 {
		t.Error("repeat-heavy stream produced no token bypasses")
	}
	if st.DedupHits == 0 {
		t.Error("repeat-heavy stream produced no in-batch dedups")
	}
	if st.EngineRetrievals+st.TokenHits+st.DedupHits != int64(len(reqs)) {
		t.Errorf("walks(%d)+tokens(%d)+dedups(%d) != %d requests",
			st.EngineRetrievals, st.TokenHits, st.DedupHits, len(reqs))
	}
	if st.EngineRetrievals >= int64(len(reqs)) {
		t.Errorf("no retrieval was saved: %d walks for %d requests", st.EngineRetrievals, len(reqs))
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

// TestInlineHitSkipsBusyShard pins that a token hit never waits for a
// batch: with the shard mutex held, as by a batch mid-walk, a repeat of
// a resolved request is still answered on the caller's goroutine, while
// a new request queues behind the batch.
func TestInlineHitSkipsBusyShard(t *testing.T) {
	cb, _, reqs := genWorkload(t, 2, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 1})
	defer s.Close()
	ctx := context.Background()
	first, err := s.Retrieve(ctx, reqs[0])
	if err != nil {
		t.Fatal(err)
	}

	sh := s.shards[0]
	sh.mu.Lock() // a batch holds the shard
	hit := make(chan retrieval.Result, 1)
	go func() {
		r, err := s.Retrieve(ctx, reqs[0])
		if err != nil {
			t.Error(err)
		}
		hit <- r
	}()
	select {
	case again := <-hit:
		if !reflect.DeepEqual(again, first) {
			t.Errorf("repeat answered %+v, first call %+v", again, first)
		}
	case <-time.After(5 * time.Second):
		sh.mu.Unlock()
		<-hit
		t.Fatal("token hit waited for the busy shard")
	}
	if got := s.Stats().TokenHits; got != 1 {
		t.Fatalf("token hits = %d with the shard busy, want 1 (answered inline)", got)
	}
	done := make(chan error, 1)
	go func() { _, err := s.Retrieve(ctx, reqs[1]); done <- err }()
	waitFor(t, "the new request to queue", func() bool { return s.Stats().Enqueued == 3 })
	select {
	case err := <-done:
		t.Fatalf("new request answered while the shard was busy (err %v)", err)
	default:
	}
	sh.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestAllocateQueuesBehindBatch pins Allocate's fallback: with the shard
// mutex held, as by a batch mid-walk, an Allocate does not walk on the
// caller's goroutine but queues, and is answered once the mutex is
// released. An Allocate on the idle shard then walks inline.
func TestAllocateQueuesBehindBatch(t *testing.T) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	s := New(cb, fig1System(t, cb), Config{Shards: 1})
	defer s.Close()
	ctx := context.Background()
	req := casebase.PaperRequest()

	sh := s.shards[0]
	sh.mu.Lock() // a batch holds the shard
	type outcome struct {
		d   *alloc.Decision
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		d, err := s.Allocate(ctx, "mp3", req, 5)
		done <- outcome{d, err}
	}()
	waitFor(t, "the Allocate to queue", func() bool { return s.Stats().Enqueued == 1 })
	select {
	case o := <-done:
		t.Fatalf("Allocate answered while the shard was busy: %+v", o)
	default:
	}
	sh.mu.Unlock()
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.d.Impl != 2 || o.d.Device != "dsp0" {
		t.Errorf("queued Allocate placed %+v, want impl 2 on dsp0", o.d)
	}
	if err := s.Release(o.d.Task.ID); err != nil {
		t.Fatal(err)
	}
	if n := sh.stripe.inlineWalks.Load(); n != 0 {
		t.Fatalf("the queued Allocate walked inline (%d inline walks)", n)
	}

	d, err := s.Allocate(ctx, "mp3", req, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Impl != 2 || d.Device != "dsp0" {
		t.Errorf("inline Allocate placed %+v, want impl 2 on dsp0", d)
	}
	st := s.Stats()
	if n := sh.stripe.inlineWalks.Load(); n != 1 || st.Enqueued != 2 || st.EngineRetrievals != 2 || st.BatchedJobs != 2 {
		t.Errorf("after one queued and one idle-shard Allocate: inline walks %d, stats %+v", n, st)
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

// TestOverloadShedsTyped pins admission control: with the single shard
// wedged (its mutex held) and a queue of one, the third request must be
// refused with a typed *ErrOverload carrying a retry hint.
func TestOverloadShedsTyped(t *testing.T) {
	cb, _, reqs := genWorkload(t, 4, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 1, MaxBatch: 1, MaxQueue: 1})
	defer s.Close()

	sh := s.shards[0]
	sh.mu.Lock() // wedge the worker mid-batch

	ctx := context.Background()
	done := make(chan error, 2)
	go func() { _, err := s.Retrieve(ctx, reqs[0]); done <- err }()
	waitFor(t, "worker to take the first job", func() bool { return len(sh.q) == 0 && s.Stats().Enqueued == 1 })

	go func() { _, err := s.Retrieve(ctx, reqs[1]); done <- err }()
	waitFor(t, "second job to fill the queue", func() bool { return len(sh.q) == 1 })

	_, err := s.Retrieve(ctx, reqs[2])
	var ov *ErrOverload
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v, want *ErrOverload", err)
	}
	if ov.Shard != 0 || ov.QueueLen != 1 || ov.RetryAfter == 0 {
		t.Errorf("overload = %+v", ov)
	}
	if !strings.Contains(ov.Error(), "retry after") {
		t.Errorf("Error() = %q", ov.Error())
	}
	if shed := s.counts.shed.Load(); shed != 1 {
		t.Errorf("Shed = %d, want 1", shed)
	}

	sh.mu.Unlock() // unwedge; both queued callers must complete
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("queued caller %d: %v", i, err)
		}
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
// checks the serve metric family shows up in the Prometheus exposition
// with per-shard labels.
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
		`qos_serve_queue_depth{shard="1"}`,
		`qos_serve_shard_busy{shard="0"}`,
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

// TestDrainFlushesQueuedJobs pins the graceful-drain contract: once
// Close begins, new submissions get ErrDraining (distinguishable from
// overload, still matching ErrClosed), while every job admitted before
// the drain is answered — the wedged batch and the queued backlog both
// complete, and the backlog goes through the shutdown flush.
func TestDrainFlushesQueuedJobs(t *testing.T) {
	cb, _, reqs := genWorkload(t, 4, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 1, MaxBatch: 1, MaxQueue: 4})

	sh := s.shards[0]
	sh.mu.Lock() // wedge the worker mid-batch

	ctx := context.Background()
	done := make(chan error, 2)
	go func() { _, err := s.Retrieve(ctx, reqs[0]); done <- err }()
	waitFor(t, "worker to take the first job", func() bool { return len(sh.q) == 0 && s.Stats().Enqueued == 1 })
	go func() { _, err := s.Retrieve(ctx, reqs[1]); done <- err }()
	waitFor(t, "second job to queue", func() bool { return len(sh.q) == 1 })

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	waitFor(t, "drain to begin", s.Draining)

	// New work is refused with the typed sentinel, not *ErrOverload.
	_, err := s.Retrieve(ctx, reqs[2])
	if !errors.Is(err, ErrDraining) {
		t.Errorf("Retrieve during drain = %v, want ErrDraining", err)
	}
	if !errors.Is(err, ErrClosed) {
		t.Errorf("Retrieve during drain = %v, want it to also match ErrClosed", err)
	}
	var ov *ErrOverload
	if errors.As(err, &ov) {
		t.Errorf("drain rejection must not read as overload: %v", err)
	}
	if _, err := s.RetrieveBatch(ctx, reqs); !errors.Is(err, ErrDraining) {
		t.Errorf("RetrieveBatch during drain = %v, want ErrDraining", err)
	}
	if _, err := s.AllocateBatch(ctx, "app", reqs, 5); !errors.Is(err, ErrDraining) {
		t.Errorf("AllocateBatch during drain = %v, want ErrDraining", err)
	}

	sh.mu.Unlock() // unwedge: the flush must settle the backlog
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("admitted caller %d got %v during drain; admitted jobs must complete", i, err)
		}
	}
	<-closed

	st := s.Stats()
	if st.DrainFlushed != 1 {
		t.Errorf("DrainFlushed = %d, want 1 (the queued job settles via the shutdown flush)", st.DrainFlushed)
	}
	if st.Shed != 0 {
		t.Errorf("Shed = %d; drain rejections must not count as overload sheds", st.Shed)
	}
}

// TestDrainMetricsExported pins the drain observability: the draining
// gauge flips to 1 and the flush counter lands in the registry.
func TestDrainMetricsExported(t *testing.T) {
	cb, _, reqs := genWorkload(t, 2, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 1, MaxBatch: 1, MaxQueue: 4})
	reg := obs.NewRegistry()
	s.Instrument(reg)

	sh := s.shards[0]
	sh.mu.Lock()
	ctx := context.Background()
	done := make(chan error, 2)
	go func() { _, err := s.Retrieve(ctx, reqs[0]); done <- err }()
	waitFor(t, "worker to take the first job", func() bool { return len(sh.q) == 0 && s.Stats().Enqueued == 1 })
	go func() { _, err := s.Retrieve(ctx, reqs[1]); done <- err }()
	waitFor(t, "second job to queue", func() bool { return len(sh.q) == 1 })

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	waitFor(t, "drain to begin", s.Draining)
	sh.mu.Unlock()
	<-done
	<-done
	<-closed

	snap := reg.Snapshot()
	if got := snap.Gauges["qos_serve_draining"]; got != 1 {
		t.Errorf("qos_serve_draining = %d, want 1", got)
	}
	if got, ok := reg.CounterValue("qos_serve_drain_flushed_total"); !ok || got != 1 {
		t.Errorf("qos_serve_drain_flushed_total = %d (present %v), want 1", got, ok)
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
// a queued batch of two different requests that share a hash must walk
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
	ja := &job{ctx: ctx, kind: jobRetrieve, req: a, hash: h, done: make(chan jobResult, 1)}
	jb := &job{ctx: ctx, kind: jobRetrieve, req: b, hash: h, done: make(chan jobResult, 1)}
	s.runBatch(sh, []*job{ja, jb})
	ra, rb := <-ja.done, <-jb.done
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
