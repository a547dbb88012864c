package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"qosalloc/internal/casebase"
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
// with its validation error and joins no batch.
func TestRequestConservation(t *testing.T) {
	cb, _, reqs := genWorkload(t, 64, 0.5)
	s := New(cb, fig1System(t, cb), Config{Shards: 4, MaxBatch: 8, MaxQueue: 4096})
	defer s.Close()
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
	if answered := st.DedupHits + st.TokenHits + st.Canceled + st.EngineRetrievals; st.BatchedJobs != answered {
		t.Errorf("BatchedJobs = %d, but dedup %d + token %d + canceled %d + walks %d = %d",
			st.BatchedJobs, st.DedupHits, st.TokenHits, st.Canceled, st.EngineRetrievals, answered)
	}
	if want := admittedAllocs.Load() + batchItems.Load(); st.Allocated+st.AllocFailed != want {
		t.Errorf("Allocated %d + AllocFailed %d = %d, want %d admitted Allocate calls + AllocateBatch items",
			st.Allocated, st.AllocFailed, st.Allocated+st.AllocFailed, want)
	}
	if st.DedupHits == 0 || st.TokenHits == 0 || st.Canceled == 0 || st.Allocated == 0 || st.AllocFailed == 0 || badSent.Load() == 0 {
		t.Errorf("a path went unexercised: %+v", st)
	}
}
