package rtsys

import (
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
)

// paperPlatform builds a small fig. 1 style platform: one two-slot FPGA,
// one DSP, one GPP, and a repository filled from the paper case base.
func paperPlatform(t *testing.T) (*System, *casebase.CaseBase) {
	t.Helper()
	cb, err := casebase.PaperCaseBase()
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
	dsp := device.NewProcessor("dsp0", casebase.TargetDSP, 1000, 128*1024)
	gpp := device.NewProcessor("gpp0", casebase.TargetGPP, 1000, 256*1024)
	return NewSystem(repo, fpga, dsp, gpp), cb
}

func implOf(t *testing.T, cb *casebase.CaseBase, ty casebase.TypeID, id casebase.ImplID) *casebase.Implementation {
	t.Helper()
	ft, ok := cb.Type(ty)
	if !ok {
		t.Fatalf("type %d missing", ty)
	}
	im, ok := ft.Impl(id)
	if !ok {
		t.Fatalf("impl %d missing", id)
	}
	return im
}

func TestTaskLifecycle(t *testing.T) {
	s, cb := paperPlatform(t)
	task := s.CreateTask("mp3", casebase.TypeFIREqualizer, 5)
	if task.State != Pending {
		t.Fatal("new tasks are pending")
	}
	im := implOf(t, cb, casebase.TypeFIREqualizer, 2) // DSP variant
	dsp := s.DevicesByKind(casebase.TargetDSP)[0]
	if err := s.Place(task, dsp, im); err != nil {
		t.Fatal(err)
	}
	if task.State != Configuring {
		t.Fatalf("state = %v", task.State)
	}
	// 18 kB opcode: fetch 18*1024/20 ≈ 922us, load 18 KiB × 50us/KiB = 900us.
	if task.ReadyAt == 0 {
		t.Fatal("ready time not set")
	}
	if err := s.AdvanceTo(task.ReadyAt); err != nil {
		t.Fatal(err)
	}
	if task.State != Running {
		t.Fatalf("state after ready = %v", task.State)
	}
	if err := s.Complete(task); err != nil {
		t.Fatal(err)
	}
	if task.State != Done {
		t.Fatal("complete must finish the task")
	}
	m := s.Metrics()
	if m.Created != 1 || m.Completed != 1 {
		t.Errorf("metrics = %+v", m)
	}
	// Device capacity returned.
	if !dsp.CanPlace(im.Foot) {
		t.Error("capacity not released")
	}
}

func TestPlaceRejectsWrongTarget(t *testing.T) {
	s, cb := paperPlatform(t)
	task := s.CreateTask("mp3", casebase.TypeFIREqualizer, 5)
	im := implOf(t, cb, casebase.TypeFIREqualizer, 1) // FPGA variant
	dsp := s.DevicesByKind(casebase.TargetDSP)[0]
	if err := s.Place(task, dsp, im); err == nil {
		t.Error("FPGA bitstream on a DSP must fail")
	}
}

func TestPlaceStateGuards(t *testing.T) {
	s, cb := paperPlatform(t)
	task := s.CreateTask("a", casebase.TypeFIREqualizer, 5)
	im := implOf(t, cb, casebase.TypeFIREqualizer, 2)
	dsp := s.DevicesByKind(casebase.TargetDSP)[0]
	if err := s.Place(task, dsp, im); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(task, dsp, im); err == nil {
		t.Error("double place must fail")
	}
	if err := s.Complete(task); err != nil {
		t.Fatal(err)
	}
	if err := s.Complete(task); err == nil {
		t.Error("double complete must fail")
	}
}

func TestPreemption(t *testing.T) {
	s, cb := paperPlatform(t)
	task := s.CreateTask("video", casebase.TypeFIREqualizer, 3)
	im := implOf(t, cb, casebase.TypeFIREqualizer, 1) // FPGA
	fpga := s.DevicesByKind(casebase.TargetFPGA)[0]
	if err := s.Place(task, fpga, im); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(task.ReadyAt); err != nil {
		t.Fatal(err)
	}
	if err := s.Preempt(task); err != nil {
		t.Fatal(err)
	}
	if task.State != Preempted || task.Dev != "" || task.Preemptions != 1 {
		t.Errorf("task after preempt = %+v", task)
	}
	if s.Metrics().Preemptions != 1 {
		t.Error("preemption metric")
	}
	// Preempted tasks can be re-placed.
	if err := s.Place(task, fpga, im); err != nil {
		t.Fatalf("re-place after preemption: %v", err)
	}
	// Pending tasks cannot be preempted.
	other := s.CreateTask("x", casebase.TypeFIREqualizer, 1)
	if err := s.Preempt(other); err == nil {
		t.Error("preempting a pending task must fail")
	}
}

func TestAdaptivePriorityAging(t *testing.T) {
	s, cb := paperPlatform(t)
	low := s.CreateTask("bg", casebase.TypeFIREqualizer, 1)
	high := s.CreateTask("fg", casebase.TypeFIREqualizer, 5)
	// The high-priority task runs; the low one starves in the wait
	// pool. Running tasks do not age.
	im := implOf(t, cb, casebase.TypeFIREqualizer, 2)
	if err := s.Place(high, s.DevicesByKind(casebase.TargetDSP)[0], im); err != nil {
		t.Fatal(err)
	}
	if s.EffectivePriority(low) >= s.EffectivePriority(high) {
		t.Fatal("base priorities must order initially")
	}
	// After 100 ms of waiting, the starved task gains 10 levels (1 per
	// 10 ms) and overtakes — the FPL'04 starvation guard.
	if err := s.Advance(100_000); err != nil {
		t.Fatal(err)
	}
	if s.EffectivePriority(low) != 1+10 {
		t.Errorf("low aged to %d, want 11", s.EffectivePriority(low))
	}
	if s.EffectivePriority(high) != 5 {
		t.Errorf("running task aged to %d, want base 5", s.EffectivePriority(high))
	}
	if s.EffectivePriority(low) <= s.EffectivePriority(high) {
		t.Error("starved task must overtake")
	}
	// Aging disabled.
	s.AgingDenominator = 0
	if s.EffectivePriority(low) != 1 {
		t.Error("disabled aging must return base priority")
	}
}

func TestClockGuards(t *testing.T) {
	s, _ := paperPlatform(t)
	if err := s.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(50); err == nil {
		t.Error("rewinding must fail")
	}
	if s.Now() != 100 {
		t.Error("failed rewind must not move clock")
	}
}

func TestPowerAccounting(t *testing.T) {
	s, cb := paperPlatform(t)
	base := s.PowerMW()
	task := s.CreateTask("mp3", casebase.TypeFIREqualizer, 5)
	im := implOf(t, cb, casebase.TypeFIREqualizer, 2) // 220 mW
	if err := s.Place(task, s.DevicesByKind(casebase.TargetDSP)[0], im); err != nil {
		t.Fatal(err)
	}
	if s.PowerMW() != base+220 {
		t.Errorf("power = %d, want %d", s.PowerMW(), base+220)
	}
}

func TestTaskListingAndLookup(t *testing.T) {
	s, _ := paperPlatform(t)
	t2 := s.CreateTask("b", 1, 0)
	t1 := s.CreateTask("a", 1, 0)
	_ = t1
	ts := s.Tasks()
	if len(ts) != 2 || ts[0].ID >= ts[1].ID {
		t.Errorf("tasks = %+v", ts)
	}
	if got, ok := s.Task(t2.ID); !ok || got != t2 {
		t.Error("Task lookup broken")
	}
	if _, ok := s.Task(999); ok {
		t.Error("unknown task must miss")
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		Pending: "pending", Configuring: "configuring", Running: "running",
		Preempted: "preempted", Done: "done", Failed: "failed",
		Recovering: "recovering", State(200): "State(200)",
	} {
		if st.String() != want {
			t.Errorf("%d → %q", st, st.String())
		}
	}
}

// TestTotalConfigCountsConfigurationOnly: TotalConfig adds a
// placement's configuration cost when it reaches Running, never the
// Pending or Preempted wait before it (TotalWait holds that), and a
// preempted task placed again adds its second configuration once.
func TestTotalConfigCountsConfigurationOnly(t *testing.T) {
	s, cb := paperPlatform(t)
	im := implOf(t, cb, casebase.TypeFIREqualizer, 2) // DSP variant
	dsp := s.DevicesByKind(casebase.TargetDSP)[0]
	task := s.CreateTask("mp3", casebase.TypeFIREqualizer, 5)
	if err := s.AdvanceTo(5000); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(task, dsp, im); err != nil {
		t.Fatal(err)
	}
	first := task.ConfigCost
	if first <= 0 {
		t.Fatalf("config cost = %d", first)
	}
	if err := s.AdvanceTo(task.ReadyAt); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.TotalConfig != first || m.TotalWait != 5000 {
		t.Errorf("after first run: TotalConfig %d, TotalWait %d; want %d, 5000", m.TotalConfig, m.TotalWait, first)
	}

	if err := s.Advance(1000); err != nil {
		t.Fatal(err)
	}
	if err := s.Preempt(task); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(3000); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(task, dsp, im); err != nil {
		t.Fatal(err)
	}
	second := task.ConfigCost
	if err := s.AdvanceTo(task.ReadyAt); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(10_000); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.TotalConfig != first+second || m.TotalWait != 8000 {
		t.Errorf("after second run: TotalConfig %d, TotalWait %d; want %d, 8000", m.TotalConfig, m.TotalWait, first+second)
	}
}

// TestTaskStranded: a task is stranded when it is Failed, or Pending
// after a fault; a fresh Pending task or any placed task is not.
func TestTaskStranded(t *testing.T) {
	for _, tc := range []struct {
		state  State
		faults int
		want   bool
	}{
		{Pending, 0, false},
		{Pending, 1, true},
		{Failed, 0, true},
		{Failed, 2, true},
		{Configuring, 1, false},
		{Running, 1, false},
		{Recovering, 1, false},
		{Preempted, 1, false},
		{Done, 1, false},
	} {
		task := &Task{State: tc.state, Faults: tc.faults}
		if got := task.Stranded(); got != tc.want {
			t.Errorf("%v with %d faults: Stranded() = %v, want %v", tc.state, tc.faults, got, tc.want)
		}
	}
}
