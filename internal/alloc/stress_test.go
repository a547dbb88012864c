package alloc

import (
	"math/rand"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/rtsys"
	"qosalloc/internal/workload"
)

// TestStressInvariants drives the manager with a randomized request /
// release / advance mix and checks the conservation invariants after
// every step: processor load within [0, capacity], FPGA slot occupancy
// within bounds, and every live placement owned by a live task.
func TestStressInvariants(t *testing.T) {
	cb, reg, err := workload.GenCaseBase(workload.PaperScale())
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenRequests(cb, reg, workload.RequestStreamSpec{
		N: 300, ConstraintsPer: 4, RepeatFraction: 0.3, Seed: 55,
	})
	if err != nil {
		t.Fatal(err)
	}
	repo := device.NewRepository(20)
	if err := repo.PopulateFromCaseBase(cb); err != nil {
		t.Fatal(err)
	}
	fpga := device.NewFPGA("fpga0", []device.Slot{
		{Slices: 1500, BRAMs: 8, Multipliers: 16},
		{Slices: 1500, BRAMs: 8, Multipliers: 16},
	}, 66)
	dsp := device.NewProcessor("dsp0", casebase.TargetDSP, 1500, 1<<20)
	gpp := device.NewProcessor("gpp0", casebase.TargetGPP, 1500, 1<<20)
	sys := rtsys.NewSystem(repo, fpga, dsp, gpp)
	m := New(retrieval.NewEngine(cb, retrieval.Options{}), sys, Options{NBest: 3, AllowPreemption: true, UseBypassTokens: true})

	check := func(step int) {
		t.Helper()
		for _, p := range []*device.Processor{dsp, gpp} {
			if p.Load() < 0 || p.Load() > p.LoadCapacity {
				t.Fatalf("step %d: %s load %d outside [0, %d]", step, p.Name(), p.Load(), p.LoadCapacity)
			}
		}
		if fpga.FreeSlots() < 0 || fpga.FreeSlots() > fpga.NumSlots() {
			t.Fatalf("step %d: free slots %d outside bounds", step, fpga.FreeSlots())
		}
		for _, dev := range sys.Devices() {
			for _, pl := range dev.Placements() {
				task, ok := sys.Task(rtsys.TaskID(pl.Task))
				if !ok {
					t.Fatalf("step %d: placement for unknown task %d", step, pl.Task)
				}
				if task.State != rtsys.Running && task.State != rtsys.Configuring {
					t.Fatalf("step %d: placed task %d is %v", step, task.ID, task.State)
				}
				if task.Dev != dev.Name() {
					t.Fatalf("step %d: task %d thinks it is on %q, device says %q",
						step, task.ID, task.Dev, dev.Name())
				}
			}
		}
	}

	r := rand.New(rand.NewSource(77))
	var live []rtsys.TaskID
	placed, failed := 0, 0
	for i, req := range reqs {
		_ = sys.Advance(device.Micros(1 + r.Intn(2000)))
		switch {
		case len(live) > 0 && r.Float64() < 0.35:
			idx := r.Intn(len(live))
			if err := m.Release(live[idx]); err != nil {
				t.Fatalf("step %d: release: %v", i, err)
			}
			live = append(live[:idx], live[idx+1:]...)
			m.ReplacePending()
		default:
			d, err := m.Request("stress", req, 1+r.Intn(9))
			if err != nil {
				failed++
			} else {
				placed++
				live = append(live, d.Task.ID)
			}
		}
		check(i)
	}
	if placed == 0 {
		t.Fatal("stress run placed nothing — scenario broken")
	}
	t.Logf("placed %d, failed %d, preemptions %d, token hits %d",
		placed, failed, m.Stats().Preemptions, m.Stats().TokenHits)
}
