package alloc

import (
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/rtsys"
)

// mechPlatform is the fig. 1 platform with its Mechanism.
func mechPlatform(t *testing.T) (*Mechanism, *rtsys.System) {
	t.Helper()
	m, sys := platform(t, Options{})
	return m.mech, sys
}

// place creates a task and places the paper case base's impl id on it.
func place(t *testing.T, x *Mechanism, id casebase.ImplID, prio int) *rtsys.Task {
	t.Helper()
	im, err := x.ImplOf(casebase.TypeFIREqualizer, id)
	if err != nil {
		t.Fatal(err)
	}
	task, _, err := x.TryPlace("app", casebase.TypeFIREqualizer, im, prio)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func TestMechanismLowestVictim(t *testing.T) {
	x, sys := mechPlatform(t)
	a := place(t, x, 2, 4) // DSP
	b := place(t, x, 2, 2) // DSP
	dsp := sys.DevicesByKind(casebase.TargetDSP)[0]
	if v := x.LowestVictim(dsp, 5); v != b {
		t.Errorf("victim for prio 5 = %v, want task %d", v, b.ID)
	}
	// Strictly below the requester: prio 2 finds no victim.
	if v := x.LowestVictim(dsp, 2); v != nil {
		t.Errorf("victim for prio 2 = task %d, want none", v.ID)
	}
	// A Recovering occupant holds its placement but is not preemptible.
	if err := sys.ConfigError(b); err != nil {
		t.Fatal(err)
	}
	if v := x.LowestVictim(dsp, 5); v != a {
		t.Errorf("victim with task %d recovering = %v, want task %d", b.ID, v, a.ID)
	}
}

func TestMechanismBestWaiting(t *testing.T) {
	x, sys := mechPlatform(t)
	if w := x.BestWaiting(); w != nil {
		t.Fatalf("best waiting on an idle platform = task %d", w.ID)
	}
	low := place(t, x, 2, 1)
	high := place(t, x, 2, 6)
	for _, task := range []*rtsys.Task{low, high} {
		if err := sys.Preempt(task); err != nil {
			t.Fatal(err)
		}
	}
	if w := x.BestWaiting(); w != high {
		t.Errorf("best waiting = %v, want task %d", w, high.ID)
	}
}

func TestMechanismSweepStranded(t *testing.T) {
	x, sys := mechPlatform(t)
	sys.RetryLimit = 0
	running := place(t, x, 2, 5)
	failed := place(t, x, 1, 5)
	if err := sys.ConfigError(failed); err != nil {
		t.Fatal(err)
	}
	var seen []rtsys.TaskID
	x.SweepStranded(func(task *rtsys.Task) {
		if task.State != rtsys.Pending {
			t.Errorf("task %d handed over in %v, want pending", task.ID, task.State)
		}
		seen = append(seen, task.ID)
	})
	if len(seen) != 1 || seen[0] != failed.ID {
		t.Errorf("swept %v, want only task %d (not %d)", seen, failed.ID, running.ID)
	}
}
