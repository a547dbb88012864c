// Negotiation demonstrates the Application-API level of fig. 1: an
// application opens a session, declares which constraints it is willing
// to give up, and issues QoS function calls; the session automates the
// §3 negotiation protocol — threshold rejection, constraint relaxation,
// counter-offers — and returns the full trail of what happened.
package main

import (
	"errors"
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
	// A demanding manager: only near-perfect matches are accepted.
	m := qosalloc.NewAllocationManager(cb, rt, qosalloc.WithThreshold(0.97))
	mon := qosalloc.NewPlatformMonitor(rt, 16)

	// The application would rather lose sample-rate than stereo.
	sess := qosalloc.OpenSession(m, "mp3-player", 5, qosalloc.AppSessionOptions{
		RelaxOrder: []qosalloc.AttrID{4 /* sample-rate */, 3 /* output-mode */},
	})

	// The paper request's best match scores 0.96 — below the 0.97
	// threshold — so the session negotiates.
	call, err := sess.Call(qosalloc.PaperRequest())
	if err != nil {
		var nf *qosalloc.ErrNegotiationFailed
		if errors.As(err, &nf) {
			log.Fatalf("negotiation failed after %d rounds", len(nf.Trail))
		}
		log.Fatal(err)
	}
	fmt.Printf("allocated impl %d on %s at S=%.2f after %d relaxation(s)\n",
		call.Impl, call.Device, call.Similarity, call.Relaxations)
	for i, step := range call.Trail {
		dropped := "-"
		if step.Relaxed != 0 {
			dropped = fmt.Sprintf("dropped attr %d", step.Relaxed)
		}
		fmt.Printf("  round %d: %d constraints -> %s (%s)\n",
			i, len(step.Request.Constraints), step.Outcome, dropped)
	}

	// The HW-Layer API reports what the negotiation committed.
	fmt.Printf("\nplatform status after allocation:\n%s", mon.Sample())

	if err := sess.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session closed; power back to %d mW\n",
		qosalloc.PlatformSnapshot(rt).TotalPowerMW)
}
