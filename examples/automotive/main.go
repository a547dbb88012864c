// Automotive demonstrates priority-driven preemption and recovery: a
// safety-critical engine-control task arrives on a platform whose only
// suitable FPGA slot is occupied by an infotainment task. The allocation
// manager preempts the lower-priority task; once capacity frees up, the
// victim returns through the adaptive-priority wait pool (the FPL'04
// scheme the run-time layer implements).
package main

import (
	"fmt"
	"log"

	"qosalloc"
)

func main() {
	cb, _, err := qosalloc.InfotainmentCaseBase()
	if err != nil {
		log.Fatal(err)
	}
	repo := qosalloc.NewRepository(20)
	if err := repo.PopulateFromCaseBase(cb); err != nil {
		log.Fatal(err)
	}
	// One FPGA slot only, and a GPP too small to host the ECU's
	// software fallback: hardware tasks must fight over the slot.
	rt := qosalloc.NewRuntime(repo,
		qosalloc.NewFPGADevice("fpga0", []qosalloc.FPGASlot{
			{Slices: 1500, BRAMs: 8, Multipliers: 16},
		}, 66),
		qosalloc.NewProcessorDevice("gpp0", qosalloc.TargetGPP, 200, 256<<10),
	)
	m := qosalloc.NewAllocationManager(cb, rt, qosalloc.WithNBest(2), qosalloc.WithPreemption(true))

	videoReq := qosalloc.NewRequest(3, // video decoder — wants the FPGA
		qosalloc.Constraint{ID: 1, Value: 16},
		qosalloc.Constraint{ID: 5, Value: 60},
		qosalloc.Constraint{ID: 6, Value: 3},
	).EqualWeights()
	ecuReq := qosalloc.NewRequest(5, // engine control — hard latency
		qosalloc.Constraint{ID: 1, Value: 16},
		qosalloc.Constraint{ID: 6, Value: 1},
	).EqualWeights()

	// 1. Infotainment fills the FPGA slot at priority 4.
	video, err := m.Request("video-player", videoReq, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("t=0      video  -> impl %d on %s (prio 4)\n", video.Impl, video.Device)
	if err := rt.AdvanceTo(video.ReadyAt); err != nil {
		log.Fatal(err)
	}

	// 2. The ECU arrives at priority 9; its latency-1 constraint only
	// the FPGA variant satisfies well, so the video task is evicted.
	ecu, err := m.Request("automotive-ecu", ecuReq, 9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("t=%-7d ecu    -> impl %d on %s (prio 9), preempted %d task(s)\n",
		rt.Now(), ecu.Impl, ecu.Device, len(ecu.Preempted))
	vt, _ := rt.Task(video.Task.ID)
	fmt.Printf("         video task is now %v (preemptions: %d)\n", vt.State, vt.Preemptions)

	// 3. While waiting, the victim's effective priority climbs: the
	// adaptive-priority rule guards it against starvation.
	before := rt.EffectivePriority(vt)
	if err := rt.Advance(50_000); err != nil {
		log.Fatal(err)
	}
	after := rt.EffectivePriority(vt)
	fmt.Printf("         victim priority aged %d -> %d over 50 ms of waiting\n", before, after)

	// 4. The ECU's control burst ends; the recovery sweep re-places the
	// victim on the freed slot.
	if err := m.Release(ecu.Task.ID); err != nil {
		log.Fatal(err)
	}
	if n := m.ReplacePending(); n != 1 {
		log.Fatalf("expected the video task back, re-placed %d", n)
	}
	fmt.Printf("t=%-7d ecu released; video task re-placed, now %v on %s\n",
		rt.Now(), vt.State, vt.Dev)

	met := rt.Metrics()
	fmt.Printf("\nrun-time metrics: %d created, %d completed, %d preemptions, %d us total wait\n",
		met.Created, met.Completed, met.Preemptions, met.TotalWait)
}
