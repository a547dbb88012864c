package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/obs"
	"qosalloc/internal/retrieval"
)

// lateCancel is a context that is live at its first Err check and
// canceled from the second on. The service checks a context once at
// entry, so a call made with it is admitted and then finds its jobs
// canceled on the shard, with no timing involved.
type lateCancel struct {
	context.Context
	checks atomic.Int32
}

func (c *lateCancel) Err() error {
	if c.checks.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// invalidRequests derives requests that fail casebase.Request.Validate
// from a valid one: an unknown type, a duplicate constraint, and a
// weight outside [0, 1].
func invalidRequests(req casebase.Request) []casebase.Request {
	unknown := casebase.Request{Type: 9999, Constraints: req.Constraints}
	dup := casebase.Request{Type: req.Type, Constraints: append(append([]casebase.Constraint(nil), req.Constraints...), req.Constraints[0])}
	heavy := casebase.Request{Type: req.Type, Constraints: append([]casebase.Constraint(nil), req.Constraints...)}
	heavy.Constraints[0].Weight = 1.5
	return []casebase.Request{unknown, dup, heavy}
}

// TestRequestConservation mixes concurrent Retrieve, Allocate,
// RetrieveBatch and AllocateBatch calls on shared shards, with live,
// already-canceled and late-canceled contexts and with invalid requests
// among the valid ones, and checks that no job and no placement goes
// uncounted: every batched job was answered by a dedup hit, a token
// hit, a cancellation or an engine walk, and every admitted allocation
// request was counted as placed or failed. An invalid request fails
// with its validation error and joins no batch. Many of those totals
// are derived from the inline counters when read, in Stats and in the
// attached series alike, so the laws are checked on both views.
func TestRequestConservation(t *testing.T) {
	cb, _, reqs := genWorkload(t, 64, 0.5)
	s := New(cb, fig1System(t, cb), Config{Shards: 4, MaxBatch: 8, MaxQueue: 4096})
	defer s.Close()
	reg := obs.NewRegistry()
	s.Instrument(reg)
	bad := invalidRequests(reqs[0])
	var badSent atomic.Int64

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	var admittedAllocs, batchItems atomic.Int64
	var wg sync.WaitGroup
	// Failures are collected under a mutex, never sent on a bounded
	// channel: a wrong answer must fail the test, not park its
	// goroutine and hang the package.
	var errMu sync.Mutex
	var errs []error
	fail := func(err error) {
		errMu.Lock()
		errs = append(errs, err)
		errMu.Unlock()
	}
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for i := 0; i < 30; i++ {
				var ctx context.Context = context.Background()
				kind := rng.Intn(3)
				switch kind {
				case 1:
					ctx = dead
				case 2:
					ctx = &lateCancel{Context: context.Background()}
				}
				lo := rng.Intn(len(reqs) - 8)
				batch := append([]casebase.Request(nil), reqs[lo:lo+1+rng.Intn(8)]...)
				invalid := rng.Intn(4) == 0
				if invalid {
					batch[0] = bad[rng.Intn(len(bad))]
				}
				switch rng.Intn(4) {
				case 0:
					_, err := s.Retrieve(ctx, batch[0])
					if (kind != 0 || invalid) && err == nil {
						fail(errors.New("Retrieve on a canceled context or an invalid request succeeded"))
					}
				case 1:
					d, err := s.Allocate(ctx, "app", batch[0], 5)
					if kind != 1 {
						admittedAllocs.Add(1)
					}
					if invalid && err == nil {
						fail(errors.New("Allocate of an invalid request succeeded"))
					}
					if err == nil {
						_ = s.Release(d.Task.ID)
					}
				case 2:
					out, err := s.RetrieveBatch(ctx, batch)
					if (err == nil) != (kind == 0) {
						fail(errors.New("RetrieveBatch error does not match its context"))
					}
					if err == nil && invalid && out[0].Err == nil {
						fail(errors.New("RetrieveBatch answered an invalid request"))
					}
				case 3:
					out, err := s.AllocateBatch(ctx, "app", batch, 5)
					if (err == nil) != (kind == 0) {
						fail(errors.New("AllocateBatch error does not match its context"))
					}
					if err == nil {
						batchItems.Add(int64(len(batch)))
					}
					for _, r := range out {
						if r.Err == nil {
							_ = s.Release(r.Decision.Task.ID)
						}
					}
				}
				if invalid && kind != 1 {
					badSent.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("%d calls failed their checks; first: %v", len(errs), errs[0])
	}

	st := s.Stats()
	t.Logf("stats: %+v", st)
	snap := reg.Snapshot()
	sizes := snap.Histograms["qos_serve_batch_size"]
	series := Stats{
		Batches:          snap.Counters["qos_serve_batches_total"],
		BatchedJobs:      sizes.Sum,
		DedupHits:        snap.Counters["qos_serve_dedup_hits_total"],
		TokenHits:        snap.Counters["qos_serve_token_hits_total"],
		Canceled:         snap.Counters["qos_serve_canceled_total"],
		EngineRetrievals: snap.Counters["qos_retrieval_total"],
		Allocated:        snap.Counters[`qos_serve_allocations_total{outcome="placed"}`],
		AllocFailed:      snap.Counters[`qos_serve_allocations_total{outcome="failed"}`],
	}
	if series.Batches != sizes.Count {
		t.Errorf("series: batches %d, but the batch-size histogram counts %d", series.Batches, sizes.Count)
	}
	for _, v := range []struct {
		view string
		st   Stats
	}{{"Stats", st}, {"series", series}} {
		st := v.st
		if answered := st.DedupHits + st.TokenHits + st.Canceled + st.EngineRetrievals; st.BatchedJobs != answered {
			t.Errorf("%s: BatchedJobs = %d, but dedup %d + token %d + canceled %d + walks %d = %d",
				v.view, st.BatchedJobs, st.DedupHits, st.TokenHits, st.Canceled, st.EngineRetrievals, answered)
		}
		if want := admittedAllocs.Load() + batchItems.Load(); st.Allocated+st.AllocFailed != want {
			t.Errorf("%s: Allocated %d + AllocFailed %d = %d, want %d admitted Allocate calls + AllocateBatch items",
				v.view, st.Allocated, st.AllocFailed, st.Allocated+st.AllocFailed, want)
		}
	}
	if st.DedupHits == 0 || st.TokenHits == 0 || st.Canceled == 0 || st.Allocated == 0 || st.AllocFailed == 0 || badSent.Load() == 0 {
		t.Errorf("a path went unexercised: %+v", st)
	}
}

// TestCloseRacesAdmission races Close against inline hits, inline
// misses, queued Retrieves, Allocates and RetrieveBatches on every
// shard. The drain fence must give each call one of two fates: answered
// and counted, or refused with ErrDraining and counted nowhere. So the
// answered calls account for every enqueued and every batched job, and
// the counters read when Close returns never move again.
func TestCloseRacesAdmission(t *testing.T) {
	cb, _, reqs := genWorkload(t, 64, 0.5)
	s := New(cb, fig1System(t, cb), Config{Shards: 4, MaxBatch: 8})
	ctx := context.Background()
	eng := retrieval.NewEngine(cb, retrieval.Options{})
	want := make([]retrieval.Result, len(reqs))
	for i, r := range reqs {
		var err error
		if want[i], err = eng.Retrieve(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range reqs[:16] { // tokens for the inline hits
		if _, err := s.Retrieve(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	warm := s.Stats()

	var retrieved, allocs, placed, allocsRefused, batchItems, calls atomic.Int64
	var errMu sync.Mutex
	var errs []error
	fail := func(err error) {
		errMu.Lock()
		errs = append(errs, err)
		errMu.Unlock()
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for refused := false; !refused; calls.Add(1) {
				i := rng.Intn(len(reqs) - 4)
				switch op := rng.Intn(4); {
				case op < 2:
					r, err := s.Retrieve(ctx, reqs[i])
					if refused = errors.Is(err, ErrDraining); err == nil {
						retrieved.Add(1)
						if r.Impl != want[i].Impl || r.Similarity != want[i].Similarity {
							fail(fmt.Errorf("Retrieve(reqs[%d]) = %+v, want %+v", i, r, want[i]))
						}
					} else if !refused {
						fail(fmt.Errorf("Retrieve: %w", err))
					}
				case op == 2:
					d, err := s.Allocate(ctx, "app", reqs[i], 5)
					if refused = errors.Is(err, ErrDraining); refused {
						allocsRefused.Add(1)
					} else {
						allocs.Add(1)
					}
					if err == nil {
						placed.Add(1)
						_ = s.Release(d.Task.ID)
					}
				default:
					out, err := s.RetrieveBatch(ctx, reqs[i:i+4])
					if refused = errors.Is(err, ErrDraining); err == nil {
						batchItems.Add(int64(len(out)))
						for k, o := range out {
							if o.Err != nil {
								fail(fmt.Errorf("RetrieveBatch item %d: %w", k, o.Err))
							}
						}
					} else if !refused {
						fail(fmt.Errorf("RetrieveBatch: %w", err))
					}
				}
			}
		}(c)
	}
	waitFor(t, "traffic before the drain", func() bool { return calls.Load() >= 400 })
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	s.Close()
	atClose := s.Stats()
	wg.Wait()
	<-closed
	if len(errs) > 0 {
		t.Fatalf("%d calls failed their checks; first: %v", len(errs), errs[0])
	}

	st := s.Stats()
	if st != atClose {
		t.Errorf("Stats moved after Close returned:\n at Close %+v\n later    %+v", atClose, st)
	}
	if got, want := st.Enqueued-warm.Enqueued, retrieved.Load()+allocs.Load(); got != want {
		t.Errorf("Enqueued = %d, want %d answered Retrieves and admitted Allocates", got, want)
	}
	// An Allocate refused with ErrDraining, at acquire or at its own
	// submit, is counted nowhere.
	if st.Allocated != placed.Load() {
		t.Errorf("Allocated = %d, want %d placed", st.Allocated, placed.Load())
	}
	if n := st.Allocated + st.AllocFailed; n != allocs.Load() {
		t.Errorf("Allocated %d + AllocFailed %d = %d, want %d answered Allocates (%d refused)",
			st.Allocated, st.AllocFailed, n, allocs.Load(), allocsRefused.Load())
	}
	// Pre-formed batch jobs are batched but never enqueued.
	if st.BatchedJobs != st.Enqueued+batchItems.Load() {
		t.Errorf("BatchedJobs = %d, want Enqueued %d + %d pre-formed items", st.BatchedJobs, st.Enqueued, batchItems.Load())
	}
	if st.TokenHits == 0 || st.EngineRetrievals == 0 || st.Allocated == 0 || batchItems.Load() == 0 {
		t.Errorf("a path went unexercised: %+v, %d batch items", st, batchItems.Load())
	}
}

// TestInlineBesideBatches races Retrieve and Allocate callers, answered
// on their own goroutines, against RetrieveBatch and AllocateBatch
// callers running pre-formed batches on the same shards and a driver
// forcing commits. The commits change no case-base value, so every
// retrieval, by either path and at any epoch, must equal a fresh walk
// over the first tree; an allocation may only place, find nothing
// feasible, or (a batch item) meet a stale epoch. Both conservation laws
// must hold, counting each stale re-fetch of an Allocate as a job of
// its own.
func TestInlineBesideBatches(t *testing.T) {
	const commits = 12
	cb, _, reqs := genWorkload(t, 64, 0.5)
	s := New(cb, fig1System(t, cb), Config{Shards: 2, MaxBatch: 4, Learning: learnConfig(64, 0)})
	defer s.Close()
	eng := retrieval.NewEngine(cb, retrieval.Options{})
	want := make([]retrieval.Result, len(reqs))
	for i, r := range reqs {
		var err error
		if want[i], err = eng.Retrieve(r); err != nil {
			t.Fatal(err)
		}
	}

	var retrieves, allocs, batchItems atomic.Int64
	var done atomic.Bool
	var errMu sync.Mutex
	var errs []error
	fail := func(err error) {
		errMu.Lock()
		errs = append(errs, err)
		errMu.Unlock()
	}
	placedOrNot := func(err error) bool {
		var stale *ErrStaleEpoch
		return err == nil || isNoFeasible(err) || errors.As(err, &stale)
	}
	clients := []func(rng *rand.Rand, ctx context.Context){
		func(rng *rand.Rand, ctx context.Context) { // Retrieve
			i := rng.Intn(len(reqs))
			r, err := s.Retrieve(ctx, reqs[i])
			retrieves.Add(1)
			if err != nil || !reflect.DeepEqual(r, want[i]) {
				fail(fmt.Errorf("Retrieve(reqs[%d]) = %+v, %v; want %+v", i, r, err, want[i]))
			}
		},
		func(rng *rand.Rand, ctx context.Context) { // Allocate
			d, err := s.Allocate(ctx, "inline", reqs[rng.Intn(len(reqs))], 5)
			allocs.Add(1)
			if !placedOrNot(err) {
				fail(fmt.Errorf("Allocate: %w", err))
			} else if err == nil {
				_ = s.Release(d.Task.ID)
			}
		},
		func(rng *rand.Rand, ctx context.Context) { // RetrieveBatch
			lo := rng.Intn(len(reqs) - 8)
			out, err := s.RetrieveBatch(ctx, reqs[lo:lo+8])
			if err != nil {
				fail(fmt.Errorf("RetrieveBatch: %w", err))
				return
			}
			batchItems.Add(int64(len(out)))
			for k, o := range out {
				if o.Err != nil || !reflect.DeepEqual(o.Result, want[lo+k]) {
					fail(fmt.Errorf("RetrieveBatch item reqs[%d] = %+v, %v; want %+v", lo+k, o.Result, o.Err, want[lo+k]))
				}
			}
		},
		func(rng *rand.Rand, ctx context.Context) { // AllocateBatch
			lo := rng.Intn(len(reqs) - 4)
			out, err := s.AllocateBatch(ctx, "batch", reqs[lo:lo+4], 5)
			if err != nil {
				fail(fmt.Errorf("AllocateBatch: %w", err))
				return
			}
			batchItems.Add(int64(len(out)))
			for _, r := range out {
				if !placedOrNot(r.Err) {
					fail(fmt.Errorf("AllocateBatch item: %w", r.Err))
				} else if r.Err == nil {
					_ = s.Release(r.Decision.Task.ID)
				}
			}
		},
	}
	clients = append(clients, clients[0], clients[1])
	calls := make([]atomic.Int64, len(clients)) // per client
	var wg sync.WaitGroup
	for c, call := range clients {
		wg.Add(1)
		go func(c int, call func(*rand.Rand, context.Context)) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for !done.Load() {
				call(rng, context.Background())
				calls[c].Add(1)
			}
		}(c, call)
	}
	// Each commit waits until every client has finished two more calls,
	// so every kind of call runs between every two commits.
	for i := 1; i <= commits; i++ {
		for c := range calls {
			for calls[c].Load() < int64(2*i) {
				runtime.Gosched()
			}
		}
		if _, err := s.CommitNow(); err != nil {
			fail(err)
		}
	}
	done.Store(true)
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("%d calls failed their checks; first: %v", len(errs), errs[0])
	}

	st, es := s.Stats(), s.EpochStats()
	t.Logf("stats: %+v; %d stale re-fetches", st, es.StaleRetries)
	if es.Epoch != 1+commits {
		t.Errorf("epoch = %d, want %d", es.Epoch, 1+commits)
	}
	if got, want := st.Enqueued, retrieves.Load()+allocs.Load()+es.StaleRetries; got != want {
		t.Errorf("Enqueued = %d, want %d Retrieves + Allocates + stale re-fetches", got, want)
	}
	if st.BatchedJobs != st.Enqueued+batchItems.Load() {
		t.Errorf("BatchedJobs = %d, want Enqueued %d + %d batch items", st.BatchedJobs, st.Enqueued, batchItems.Load())
	}
	if answered := st.DedupHits + st.TokenHits + st.Canceled + st.EngineRetrievals; st.BatchedJobs != answered {
		t.Errorf("BatchedJobs = %d, but dedup %d + token %d + canceled %d + walks %d = %d",
			st.BatchedJobs, st.DedupHits, st.TokenHits, st.Canceled, st.EngineRetrievals, answered)
	}
	if st.Shed != 0 || st.TokenHits == 0 || st.EngineRetrievals == 0 || st.Allocated == 0 {
		t.Errorf("a path went unexercised or shed: %+v", st)
	}
}
