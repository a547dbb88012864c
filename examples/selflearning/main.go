// Selflearning demonstrates the paper's §5 outlook — "dynamic update
// mechanisms of Case-Base-data structures and function repositories at
// run-time enabling for a self-learning system" — end to end through the
// public API: an implementation's real QoS degrades below its
// advertisement, run-time observations revise the case base, a new
// variant is retained from a repository update, and the serving
// allocation service swaps in each committed epoch without a restart.
package main

import (
	"context"
	"fmt"
	"log"

	"qosalloc"
)

func main() {
	cb, err := qosalloc.PaperCaseBase()
	if err != nil {
		log.Fatal(err)
	}
	repo := qosalloc.NewRepository(20)
	if err := repo.PopulateFromCaseBase(cb); err != nil {
		log.Fatal(err)
	}
	rt := qosalloc.NewRuntime(repo,
		qosalloc.NewFPGADevice("fpga0", []qosalloc.FPGASlot{
			{Slices: 1500, BRAMs: 8, Multipliers: 16},
		}, 66),
		qosalloc.NewProcessorDevice("dsp0", qosalloc.TargetDSP, 1000, 192<<10),
		qosalloc.NewProcessorDevice("gpp0", qosalloc.TargetGPP, 1000, 256<<10),
	)
	// EWMA weight 0.6 per observation; commits happen where this program
	// asks for them (the default fold threshold is never reached here).
	svc := qosalloc.NewService(cb, rt, qosalloc.WithLearning(0.6, 0, 0))
	defer svc.Close()
	ctx := context.Background()
	req := qosalloc.PaperRequest()
	place := func(label string) qosalloc.ImplID {
		d, err := svc.Allocate(ctx, "mp3", req, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s impl %d on %s (S=%.2f, epoch %d)\n", label, d.Impl, d.Device, d.Similarity, svc.Epoch())
		if err := svc.Release(d.Task.ID); err != nil {
			log.Fatal(err)
		}
		return d.Impl
	}

	// 1. Normal operation: the DSP equalizer wins (Table 1).
	place("before learning:")

	// 2. Monitors keep observing that the DSP variant only sustains
	// 20 kS/s instead of the advertised 44 — the revise step. The
	// observations accumulate off the read path until a commit.
	for i := 0; i < 8; i++ {
		if err := svc.Observe(qosalloc.Observation{
			Type: 1, Impl: 2,
			Measured: []qosalloc.AttrPair{{ID: 4, Value: 20}}, // sample-rate
		}); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := svc.CommitNow(); err != nil {
		log.Fatal(err)
	}
	journal := svc.Journal()
	fmt.Printf("revision committed: %s\n", journal[len(journal)-1])
	place("after revise:")

	// 3. Meanwhile a new, better DSP build lands in the repository —
	// the retain step. The service stores its configuration blob and
	// commits the new variant in one epoch.
	newID, err := svc.Retain(1, qosalloc.Implementation{
		Name: "fir-eq-dsp-v2", Target: qosalloc.TargetDSP,
		Attrs: []qosalloc.AttrPair{
			{ID: 1, Value: 16}, // bitwidth
			{ID: 3, Value: 1},  // stereo
			{ID: 4, Value: 40}, // exactly the requested rate
		},
		Foot: qosalloc.Footprint{CPULoad: 420, MemBytes: 24 << 10, PowerMW: 210, ConfigBytes: 20 << 10},
	}, svc.Epoch())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retained new variant: impl %d\n", newID)

	// 4. The same request now retrieves the revised tree: the degraded
	// DSP variant lost its lead and the freshly retained v2 wins.
	if got := place("after learning:"); got != newID {
		log.Fatalf("expected the retained variant %d to win, got %d", newID, got)
	}
	fmt.Println("the retained variant wins")
}
