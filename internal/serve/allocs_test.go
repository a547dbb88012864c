package serve

import (
	"context"
	"testing"

	"qosalloc/internal/casebase"
)

// TestServiceAllocsPinned pins the heap allocations of the service
// paths per call: a token-hit Retrieve after warm-up, a Retrieve that
// misses and walks on the caller's goroutine, an Allocate followed by
// its Release, a RetrieveBatch of 16 distinct requests over four
// shards, and the two clock publishers, Tick and Exclusive. The counts
// include the shard worker's share, so a change to the job pipeline
// that makes any path allocate more fails here before it shows in a
// benchmark.
func TestServiceAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	s := New(cb, fig1System(t, cb), Config{})
	defer s.Close()
	ctx := context.Background()
	req := casebase.PaperRequest()
	// The batch needs several types to spread over the shards; the
	// paper's case base has one.
	gcb, _, batch := genWorkload(t, 16, 0)
	gs := New(gcb, fig1System(t, gcb), Config{})
	defer gs.Close()
	// Every miss call retrieves a request no earlier call resolved.
	_, _, cold := genWorkload(t, 512, 0)
	ms := New(gcb, fig1System(t, gcb), Config{})
	defer ms.Close()
	next := 0

	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"Retrieve/token-hit", 0, func() {
			if _, err := s.Retrieve(ctx, req); err != nil {
				t.Fatal(err)
			}
		}},
		{"Retrieve/miss", 3, func() {
			if _, err := ms.Retrieve(ctx, cold[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}},
		{"Allocate+Release", 14, func() {
			d, err := s.Allocate(ctx, "mp3", req, 5)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Release(d.Task.ID); err != nil {
				t.Fatal(err)
			}
		}},
		{"RetrieveBatch/16", 74, func() {
			if _, err := gs.RetrieveBatch(ctx, batch); err != nil {
				t.Fatal(err)
			}
		}},
		{"Tick", 0, func() { s.Tick(1) }},
		{"Exclusive", 0, func() { s.Exclusive(func() {}) }},
	} {
		c.run() // warm the token cache and the batch scratch
		got := testing.AllocsPerRun(200, c.run)
		t.Logf("%s: %.1f allocs/op", c.name, got)
		if got > c.max {
			t.Errorf("%s allocates %.1f times per call, pinned at %.0f", c.name, got, c.max)
		}
	}
	if walks := ms.counts.inlineWalks.Load(); walks != int64(next) {
		t.Errorf("%d miss calls walked inline %d times; each must miss and walk once", next, walks)
	}
}
