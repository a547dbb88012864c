package alloc

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/fault"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/rtsys"
	"qosalloc/internal/workload"
)

// pinnedRecoveryHash is the Manager recovery golden: the fnv64a digest
// of every Recovery and ReplacePending outcome of the seeded storm
// below. It covers the power-ranked candidate order, victim selection,
// the excluded-target walk and the lost-attribute accounting together,
// so a change to any of them shows up here. Regenerate with
// `go test -run TestManagerRecoveryGolden -v ./internal/alloc/` after an
// intentional policy change.
const pinnedRecoveryHash = "fnv64a:fdeb4aaac0808711"

// recoveryScenario replays a paper-scale request stream on a two-FPGA
// platform with preemption on while a seeded storm
// kills slots and a device and corrupts configurations. It returns one
// line per recovery outcome and per ReplacePending pass, and the final
// counters.
func recoveryScenario(t *testing.T, powerWeight float64) ([]string, Stats) {
	t.Helper()
	cb, reg, err := workload.GenCaseBase(workload.PaperScale())
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenRequests(cb, reg, workload.RequestStreamSpec{
		N: 300, ConstraintsPer: 4, RepeatFraction: 0.3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	repo := device.NewRepository(20)
	if err := repo.PopulateFromCaseBase(cb); err != nil {
		t.Fatal(err)
	}
	slots := []device.Slot{
		{Slices: 1500, BRAMs: 8, Multipliers: 16},
		{Slices: 1500, BRAMs: 8, Multipliers: 16},
	}
	sys := rtsys.NewSystem(repo,
		device.NewFPGA("fpga0", slots, 66),
		device.NewFPGA("fpga1", slots, 66),
		device.NewProcessor("dsp0", casebase.TargetDSP, 1500, 1<<20),
		device.NewProcessor("gpp0", casebase.TargetGPP, 1500, 1<<21),
	)
	sys.RetryLimit = 1 // configuration faults strand tasks, not only device faults
	m := New(retrieval.NewEngine(cb, retrieval.Options{}), sys, Options{NBest: 5, AllowPreemption: true, PowerWeight: powerWeight})
	plan, err := fault.Storm(rand.New(rand.NewSource(5)), fault.StormSpec{
		Horizon:   device.Micros(len(reqs)) * 1000,
		SlotFails: 3, DeviceFails: 2, ConfigErrors: 30, SEUs: 20,
		Targets: []fault.StormTarget{
			{Device: "fpga0", Slots: len(slots)},
			{Device: "fpga1", Slots: len(slots)},
			{Device: "dsp0"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(sys, plan)

	var lines []string
	render := func(recs []Recovery) {
		for _, r := range recs {
			s := fmt.Sprintf("t=%d task=%d app=%s ", sys.Now(), r.Task, r.App)
			switch {
			case r.Decision != nil:
				d := r.Decision
				s += fmt.Sprintf("impl=%d dev=%s sim=%.6f ready=%d", d.Impl, d.Device, d.Similarity, d.ReadyAt)
				if g := d.Degraded; g != nil {
					s += fmt.Sprintf(" degraded %d->%d %.6f->%.6f lost=%v", g.FromImpl, g.ToImpl, g.FromSim, g.ToSim, g.LostAttrs)
				}
			case r.Report != nil:
				rep := r.Report
				tried := make([]string, len(rep.Tried))
				for i, c := range rep.Tried {
					tried[i] = fmt.Sprintf("%d@%.6f", c.Impl, c.Similarity)
				}
				s += fmt.Sprintf("rejected excluded=%v tried=[%s] lost=%v", rep.Excluded, strings.Join(tried, " "), rep.LostAttrs)
			}
			lines = append(lines, s)
		}
	}

	var live []rtsys.TaskID
	for i, req := range reqs {
		applied, err := inj.AdvanceTo(device.Micros(i+1) * 1000)
		if err != nil {
			t.Fatal(err)
		}
		if len(applied) > 0 {
			render(m.RecoverFromFaults())
		}
		if len(live) >= 10 {
			_ = m.Release(live[0])
			live = live[1:]
			lines = append(lines, fmt.Sprintf("t=%d replaced=%d", sys.Now(), m.ReplacePending()))
		}
		d, err := m.Request(fmt.Sprintf("app%d", i%8), req, 1+i%9)
		if err != nil {
			continue
		}
		live = append(live, d.Task.ID)
	}
	if _, err := inj.AdvanceTo(sys.Now() + 100_000); err != nil {
		t.Fatal(err)
	}
	render(m.RecoverFromFaults())
	lines = append(lines, fmt.Sprintf("t=%d replaced=%d", sys.Now(), m.ReplacePending()))
	return lines, m.Stats()
}

// TestManagerRecoveryGolden pins every Manager recovery outcome under a
// seeded storm with PowerWeight > 0 and preemption on, and checks that
// the scenario exercises each path it pins.
func TestManagerRecoveryGolden(t *testing.T) {
	lines, st := recoveryScenario(t, 0.1)
	for _, l := range lines {
		t.Log(l)
	}
	t.Logf("stats %+v", st)
	got := hashLines(lines)
	if got != pinnedRecoveryHash {
		t.Errorf("recovery golden = %s, want %s", got, pinnedRecoveryHash)
	}
	// The power ranking must matter to the outcome, or the pin would
	// not notice a change in the power-ranked order.
	if plain, _ := recoveryScenario(t, 0); hashLines(plain) == got {
		t.Error("PowerWeight does not change the scenario's recoveries")
	}
	if st.Recovered == 0 || st.Degraded == 0 || st.FaultRejected == 0 || st.Preemptions == 0 {
		t.Errorf("scenario misses a path it pins: %+v", st)
	}
	replaced := 0
	for _, l := range lines {
		var at, n int
		if _, err := fmt.Sscanf(l, "t=%d replaced=%d", &at, &n); err == nil {
			replaced += n
		}
	}
	if replaced == 0 {
		t.Error("no ReplacePending pass re-placed a task")
	}
}

// hashLines folds rendered outcome lines into a printable fnv64a digest.
func hashLines(lines []string) string {
	h := fnv.New64a()
	for _, l := range lines {
		_, _ = h.Write([]byte(l))
		_, _ = h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}
