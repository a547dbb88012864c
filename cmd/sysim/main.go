// Command sysim runs the end-to-end multi-device allocation simulation:
// the fig. 1 application mix (MP3 player, video, automotive ECU, cruise
// control) negotiating QoS function calls against a platform of two
// FPGAs, a DSP and a GP processor.
//
// Usage:
//
//	sysim                 # the fig. 1 scenario timeline
//	sysim -stream 500     # additionally replay a 500-request synthetic stream
//	sysim -stream 500 -faults "120000:slotfail:fpga0:1;200000:configerr:fpga0"
//	                      # …while injecting a scripted fault plan
//	sysim -serve -clients 32 -shards 8 -stream 400
//	                      # drive the concurrent allocation service instead:
//	                      # N client goroutines against the sharded batching
//	                      # front end, then a deterministic batched-allocation
//	                      # pass (DESIGN.md §9)
//
// The fault plan DSL is ';'-separated "at:kind:device[:slot]" events
// with kinds slotfail, devfail, configerr and seu; times are simulation
// microseconds. Every task stranded by a fault is either re-placed on an
// alternative variant (degrade-and-retry down the N-best list) or
// rejected with a structured DegradationReport — never silently dropped.
//
// Observability (DESIGN.md §7):
//
//	sysim -stream 500 -metrics prom   # Prometheus text exposition after the run
//	sysim -stream 500 -metrics json   # JSON snapshot (includes trace-ring events)
//	sysim -stream 500 -metrics both
//	sysim -pprof localhost:6060       # serve net/http/pprof while running
//
// -metrics instruments the stream's manager, runtime and injector on one
// shared registry and dumps it after the replay. All metric timestamps
// are simulation microseconds, so the dump is deterministic for a fixed
// seed and plan.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"qosalloc"
)

func main() {
	stream := flag.Int("stream", 0, "also replay N generated requests through the manager")
	seed := flag.Int64("seed", 42, "stream generator seed")
	repeat := flag.Float64("repeat", 0.5, "stream repeat fraction (bypass-token hits)")
	faults := flag.String("faults", "", "fault plan to inject during the stream (at:kind:device[:slot];...)")
	metrics := flag.String("metrics", "", "dump stream metrics after the run: prom, json or both")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	serveMode := flag.Bool("serve", false, "drive the concurrent allocation service instead of the scenario")
	clients := flag.Int("clients", 16, "client goroutines in -serve mode")
	shards := flag.Int("shards", 4, "retrieval shards in -serve mode")
	flag.Parse()

	switch *metrics {
	case "", "prom", "json", "both":
	default:
		fatal(fmt.Errorf("-metrics must be prom, json or both (got %q)", *metrics))
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "sysim: pprof: %v\n", err)
			}
		}()
		fmt.Printf("pprof: serving on http://%s/debug/pprof/\n", *pprofAddr)
	}

	plan, err := qosalloc.ParseFaultPlan(*faults)
	if err != nil {
		fatal(err)
	}

	if *serveMode {
		n := *stream
		if n <= 0 {
			n = 200
		}
		var reg *qosalloc.ObsRegistry
		if *metrics != "" {
			reg = qosalloc.NewObsRegistry()
		}
		if err := runService(n, *clients, *shards, *seed, *repeat, reg); err != nil {
			fatal(err)
		}
		dumpMetrics(*metrics, reg)
		return
	}

	e, ok := qosalloc.ExperimentByID("system")
	if !ok {
		fatal(fmt.Errorf("system experiment missing"))
	}
	fmt.Println("=== fig. 1 application-mix scenario ===")
	if err := e.Run(os.Stdout); err != nil {
		fatal(err)
	}

	if *stream > 0 || len(plan.Events) > 0 || *metrics != "" {
		n := *stream
		if n <= 0 {
			n = 200
		}
		var reg *qosalloc.ObsRegistry
		if *metrics != "" {
			reg = qosalloc.NewObsRegistry()
		}
		fmt.Printf("\n=== synthetic stream: %d requests, repeat %.2f", n, *repeat)
		if len(plan.Events) > 0 {
			fmt.Printf(", %d scripted faults", len(plan.Events))
		}
		fmt.Println(" ===")
		if err := replayStream(n, *seed, *repeat, plan, reg); err != nil {
			fatal(err)
		}
		dumpMetrics(*metrics, reg)
	}
}

func dumpMetrics(mode string, reg *qosalloc.ObsRegistry) {
	// Not a hot-path instrumentation guard: with -metrics off no registry
	// exists and no metrics section should be printed at all.
	//qosvet:ignore obslint CLI decides whether to render a metrics section, not whether to record
	if reg == nil {
		return
	}
	if mode == "prom" || mode == "both" {
		fmt.Println("\n=== metrics (prometheus text exposition) ===")
		if err := reg.WriteProm(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if mode == "json" || mode == "both" {
		fmt.Println("\n=== metrics (json snapshot) ===")
		if err := reg.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// runService drives the DESIGN.md §9 service layer: a concurrent phase
// (client goroutines against the sharded, batching front end) and a
// deterministic batched-allocation phase. The retrieval results and the
// placement counts are deterministic for a fixed seed; only the batch
// shapes of the concurrent phase depend on scheduling.
func runService(n, clients, shards int, seed int64, repeat float64, oreg *qosalloc.ObsRegistry) error {
	if clients < 1 {
		clients = 1
	}
	cb, reg, err := qosalloc.GenCaseBase(qosalloc.PaperScaleSpec())
	if err != nil {
		return err
	}
	reqs, err := qosalloc.GenRequests(cb, reg, qosalloc.RequestStreamSpec{
		N: n, ConstraintsPer: 4, RepeatFraction: repeat, Seed: seed,
	})
	if err != nil {
		return err
	}
	repo := qosalloc.NewRepository(20)
	if err := repo.PopulateFromCaseBase(cb); err != nil {
		return err
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
	svc := qosalloc.NewService(cb, rt,
		qosalloc.WithShards(shards),
		qosalloc.WithPreemption(true),
		qosalloc.WithRegistry(oreg),
	)
	defer svc.Close()

	fmt.Printf("=== service mode: %d clients, %d shards, %d requests ===\n", clients, shards, n)

	// Phase 1: concurrent clients hammer Retrieve, each call answered on
	// its client's goroutine; shed requests are retried after the hinted
	// backoff.
	ctx := context.Background()
	var ok, failed, shedRetries atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += clients {
				for {
					_, err := svc.Retrieve(ctx, reqs[i])
					var ov *qosalloc.ErrOverload
					if errors.As(err, &ov) {
						shedRetries.Add(1)
						time.Sleep(time.Duration(ov.RetryAfter) * time.Microsecond)
						continue
					}
					if err != nil {
						failed.Add(1)
					} else {
						ok.Add(1)
					}
					break
				}
			}
		}(c)
	}
	wg.Wait()
	st := svc.Stats()
	fmt.Printf("retrieved:   %d ok, %d failed (%d shed then retried)\n",
		ok.Load(), failed.Load(), shedRetries.Load())
	fmt.Printf("batching:    %d micro-batches, largest %d, dedup %d, token hits %d, engine walks %d\n",
		st.Batches, st.MaxBatch, st.DedupHits, st.TokenHits, st.EngineRetrievals)

	// Phase 2: the same stream as pre-formed allocation batches —
	// deterministic placement for a fixed seed.
	var placed, noFeasible int
	for lo := 0; lo < len(reqs); lo += 16 {
		hi := min(lo+16, len(reqs))
		out, err := svc.AllocateBatch(ctx, fmt.Sprintf("app%d", lo/16), reqs[lo:hi], 5)
		if err != nil {
			return err
		}
		for _, r := range out {
			if r.Err != nil {
				noFeasible++
				continue
			}
			placed++
			if err := svc.Release(r.Decision.Task.ID); err != nil {
				return err
			}
		}
		if err := svc.Advance(rt.Now() + 1000); err != nil {
			return err
		}
	}
	fmt.Printf("placed:      %d of %d batched allocations (%d without a feasible variant)\n",
		placed, n, noFeasible)
	fmt.Printf("final power: %d mW across %d devices\n", rt.PowerMW(), len(rt.Devices()))
	return nil
}

// replayStream pushes a generated request stream through a fresh
// platform — under the given fault plan — and reports manager and
// fault-recovery statistics. A non-nil reg instruments every layer.
func replayStream(n int, seed int64, repeat float64, plan qosalloc.FaultPlan, oreg *qosalloc.ObsRegistry) error {
	cb, reg, err := qosalloc.GenCaseBase(qosalloc.PaperScaleSpec())
	if err != nil {
		return err
	}
	reqs, err := qosalloc.GenRequests(cb, reg, qosalloc.RequestStreamSpec{
		N: n, ConstraintsPer: 4, RepeatFraction: repeat, Seed: seed,
	})
	if err != nil {
		return err
	}
	repo := qosalloc.NewRepository(20)
	if err := repo.PopulateFromCaseBase(cb); err != nil {
		return err
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
	// A nil registry yields dangling bundles, so instrumentation never
	// branches (obslint's dangling-bundle invariant).
	m := qosalloc.NewAllocationManager(cb, rt, qosalloc.WithNBest(3),
		qosalloc.WithPreemption(true), qosalloc.WithBypassTokens(true), qosalloc.WithRegistry(oreg))
	inj := qosalloc.NewFaultInjector(rt, plan)
	rt.Instrument(oreg)
	inj.Instrument(oreg)

	var ok, fail, stranded, recovered, degraded, rejected int
	var live []qosalloc.TaskID
	absorb := func(recs []qosalloc.Recovery) {
		for _, rec := range recs {
			switch {
			case rec.Decision != nil:
				recovered++
				if rec.Decision.Degraded != nil {
					degraded++
					fmt.Printf("  [fault] task %d degraded: impl %d (S=%.2f) -> impl %d (S=%.2f), lost attrs %v\n",
						rec.Task, rec.Decision.Degraded.FromImpl, rec.Decision.Degraded.FromSim,
						rec.Decision.Degraded.ToImpl, rec.Decision.Degraded.ToSim,
						rec.Decision.Degraded.LostAttrs)
				}
			case rec.Report != nil:
				rejected++
				fmt.Printf("  [fault] task %d rejected: %v\n", rec.Task, rec.Report)
			}
		}
	}
	for i, req := range reqs {
		// Advance 1 ms per request, stopping at each scripted fault;
		// hold each allocation for 10 requests' worth of time by
		// releasing the oldest.
		applied, err := inj.AdvanceTo(rt.Now() + 1000)
		if err != nil {
			return err
		}
		for _, a := range applied {
			fmt.Printf("  [fault] t=%d %v hit %d task(s)\n", a.Event.At, a.Event, len(a.Affected))
			stranded += len(a.Affected)
		}
		if len(applied) > 0 {
			absorb(m.RecoverFromFaults())
		}
		if len(live) >= 10 {
			_ = m.Release(live[0])
			live = live[1:]
			m.ReplacePending()
		}
		d, err := m.Request(fmt.Sprintf("app%d", i%8), req, 1+i%9)
		if err != nil {
			fail++
			continue
		}
		ok++
		live = append(live, d.Task.ID)
	}
	// Fire any remaining faults and sweep once more.
	if _, err := inj.AdvanceTo(rt.Now() + 100_000); err != nil {
		return err
	}
	absorb(m.RecoverFromFaults())

	st := m.Stats()
	fmt.Printf("requests:    %d\n", st.Requests)
	fmt.Printf("placed:      %d (failed %d)\n", ok, fail)
	fmt.Printf("retrievals:  %d (saved by bypass tokens: %d)\n", st.Retrievals, st.TokenHits)
	fmt.Printf("preemptions: %d\n", st.Preemptions)
	if len(plan.Events) > 0 {
		mt := rt.Metrics()
		dropped := rt.StrandedCount()
		fmt.Printf("faults:      %d applied; %d stranded, %d re-placed (%d degraded), %d rejected, %d dropped\n",
			len(plan.Events), mt.Stranded, recovered, degraded, rejected, dropped)
		fmt.Printf("fault path:  %d config errors, %d SEUs, %d retries fired, %d requeued\n",
			mt.ConfigErrors, mt.SEUs, mt.Retries, mt.Requeued)
		if dropped > 0 {
			return fmt.Errorf("sysim: %d task(s) dropped without a DegradationReport", dropped)
		}
	}
	fmt.Printf("final power: %d mW across %d devices\n", rt.PowerMW(), len(rt.Devices()))
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sysim: %v\n", err)
	os.Exit(1)
}
