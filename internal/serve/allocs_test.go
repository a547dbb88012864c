package serve

import (
	"context"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/retrieval"
)

// TestServiceAllocsPinned pins the heap allocations of the service
// paths per call: a token-hit Retrieve after warm-up, a Retrieve that
// misses and walks on the caller's goroutine (below the token cap, where
// the miss copies its key, and at it, where the key reuses the evicted
// entry's slice), an Allocate followed by its Release, which walks its
// candidate list on the caller's goroutine, a RetrieveBatch
// of 16 distinct requests over four shards, and the two clock
// publishers, Tick and Exclusive. A change to a request path that makes
// it allocate more fails here before it shows in a benchmark.
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
	// fs's one shard starts with a full token table of requests shaped
	// like cold's but keyed apart by their weights.
	fs := New(gcb, fig1System(t, gcb), Config{Shards: 1})
	defer fs.Close()
	full := fs.snap.Load().tokens[0]
	for i := 0; full.Len() < retrieval.DefaultMaxTokens; i++ {
		r := cold[i%len(cold)]
		r.Constraints = append([]casebase.Constraint(nil), r.Constraints...)
		r.Constraints[0].Weight = float64(i + 2)
		full.Store(retrieval.Hash(r), r, retrieval.Token{Type: r.Type})
	}
	nextFull := 0
	allocs := 0

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
		{"Retrieve/miss", 1, func() {
			if _, err := ms.Retrieve(ctx, cold[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}},
		{"Retrieve/miss-at-cap", 0, func() {
			if _, err := fs.Retrieve(ctx, cold[nextFull]); err != nil {
				t.Fatal(err)
			}
			nextFull++
		}},
		{"Allocate+Release", 8, func() {
			d, err := s.Allocate(ctx, "mp3", req, 5)
			if err != nil {
				t.Fatal(err)
			}
			allocs++
			if err := s.Release(d.Task.ID); err != nil {
				t.Fatal(err)
			}
		}},
		{"RetrieveBatch/16", 25, func() {
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
	// s walked inline once for the token-hit case's warm-up miss, and
	// once for each Allocate.
	for _, m := range []struct {
		s     *Service
		calls int
	}{{ms, next}, {fs, nextFull}, {s, 1 + allocs}} {
		var walks int64
		for _, sh := range m.s.shards {
			walks += sh.stripe.inlineWalks.Load()
		}
		if walks != int64(m.calls) {
			t.Errorf("%d calls walked inline %d times; each must walk once", m.calls, walks)
		}
	}
	if n := full.Len(); n != retrieval.DefaultMaxTokens {
		t.Errorf("full token table holds %d tokens, want the cap %d", n, retrieval.DefaultMaxTokens)
	}
}
