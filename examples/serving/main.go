// Serving: the v2 service layer (DESIGN.md §9). Many client goroutines
// share one qosalloc.Service — the case base sharded by type, each
// Retrieve answered on its caller's goroutine from a bypass token or by
// a walk of its own, a bound on each shard's concurrent walks — then a
// deterministic batched-allocation pass, deduplicated within its
// micro-batches, places a stream against the platform.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"

	"qosalloc"
)

func main() {
	// A Table-3-scale synthetic case base and a repeat-heavy request
	// stream: repeated signatures are what the service's singleflight
	// dedup and bypass-token caches exploit.
	cb, reg, err := qosalloc.GenCaseBase(qosalloc.PaperScaleSpec())
	if err != nil {
		log.Fatal(err)
	}
	reqs, err := qosalloc.GenRequests(cb, reg, qosalloc.RequestStreamSpec{
		N: 160, ConstraintsPer: 4, RepeatFraction: 0.5, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The fig. 1 style platform: a 3-slot FPGA, a DSP, a GPP.
	repo := qosalloc.NewRepository(20)
	if err := repo.PopulateFromCaseBase(cb); err != nil {
		log.Fatal(err)
	}
	rt := qosalloc.NewRuntime(repo,
		qosalloc.NewFPGADevice("fpga0", []qosalloc.FPGASlot{
			{Slices: 1500, BRAMs: 8, Multipliers: 16},
			{Slices: 1500, BRAMs: 8, Multipliers: 16},
			{Slices: 1500, BRAMs: 8, Multipliers: 16},
		}, 66),
		qosalloc.NewProcessorDevice("dsp0", qosalloc.TargetDSP, 2000, 1<<20),
		qosalloc.NewProcessorDevice("gpp0", qosalloc.TargetGPP, 2000, 1<<21),
	)

	// The service: 4 shards, instrumented on a metric registry.
	obs := qosalloc.NewObsRegistry()
	svc := qosalloc.NewService(cb, rt,
		qosalloc.WithShards(4),
		qosalloc.WithPreemption(true),
		qosalloc.WithRegistry(obs),
	)
	defer svc.Close()

	// Phase 1: 16 concurrent clients retrieve on their own goroutines.
	// Overload comes back as a typed error with a retry-after hint; a
	// real client would back off — here the walk bound is high enough.
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += 16 {
				if _, err := svc.Retrieve(ctx, reqs[i]); err != nil {
					var ov *qosalloc.ErrOverload
					if errors.As(err, &ov) {
						fmt.Printf("client %d shed from shard %d, retry after %d µs\n",
							c, ov.Shard, ov.RetryAfter)
						continue
					}
					log.Fatal(err)
				}
			}
		}(c)
	}
	wg.Wait()
	st := svc.Stats()
	fmt.Printf("16 clients retrieved %d requests: %d engine walks, %d dedup hits, %d token hits\n",
		len(reqs), st.EngineRetrievals, st.DedupHits, st.TokenHits)

	// Phase 2: the same stream as pre-formed allocation batches —
	// deterministic: batch composition follows input order, placement
	// happens in input order under one lock.
	placed, infeasible := 0, 0
	for lo := 0; lo < len(reqs); lo += 20 {
		hi := min(lo+20, len(reqs))
		out, err := svc.AllocateBatch(ctx, fmt.Sprintf("app%d", lo/20), reqs[lo:hi], 5)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range out {
			if r.Err != nil {
				infeasible++
				continue
			}
			placed++
			if err := svc.Release(r.Decision.Task.ID); err != nil {
				log.Fatal(err)
			}
		}
		if err := svc.Advance(rt.Now() + 1000); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("batched allocation: %d placed, %d without a feasible variant\n", placed, infeasible)

	// The registry collected the service counters alongside the manager
	// and retrieval metrics.
	for _, name := range []string{
		"qos_serve_batches_total", "qos_serve_dedup_hits_total", "qos_serve_token_hits_total",
	} {
		if v, ok := obs.CounterValue(name); ok {
			fmt.Printf("%-28s %d\n", name, v)
		}
	}

	// Cancellation is first-class: a dead context is refused before any
	// work starts.
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := svc.Retrieve(dead, reqs[0]); errors.Is(err, qosalloc.ErrCanceled) {
		fmt.Println("canceled context rejected up front:", err)
	}
}
