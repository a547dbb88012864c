package rtsys_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"qosalloc/internal/alloc"
	"qosalloc/internal/alloc/policy"
	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/fault"
	"qosalloc/internal/obs"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/rtsys"
	"qosalloc/internal/workload"
)

// window is how many tasks the rig's client holds before it releases
// the oldest.
const window = 10

// rig drives an allocation Manager with preemption on over a
// paper-scale request stream while a seeded fault storm hits the
// platform: the allocate/release/advance loop of a long-lived daemon.
type rig struct {
	sys  *rtsys.System
	m    *alloc.Manager
	mech *alloc.Mechanism
	inj  *fault.Injector
	reqs []casebase.Request
	held []rtsys.TaskID
}

// newRig builds the platform, a storm spread over steps steps and the
// request stream; reg, when non-nil, instruments the run-time system.
func newRig(t *testing.T, seed int64, steps int, reg *obs.Registry) *rig {
	t.Helper()
	cb, areg, err := workload.GenCaseBase(workload.PaperScale())
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenRequests(cb, areg, workload.RequestStreamSpec{
		N: 500, ConstraintsPer: 4, RepeatFraction: 0.3, Seed: seed,
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
	sys.RetryLimit = 1 // configuration faults strand tasks too
	if reg != nil {
		sys.Instrument(reg)
	}
	plan, err := fault.Storm(rand.New(rand.NewSource(seed)), fault.StormSpec{
		Horizon:   at(steps),
		SlotFails: 3, DeviceFails: 1, ConfigErrors: steps / 20, SEUs: steps / 30,
		Targets: []fault.StormTarget{
			{Device: "fpga0", Slots: len(slots)},
			{Device: "fpga1", Slots: len(slots)},
			{Device: "dsp0"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{
		sys:  sys,
		m:    alloc.New(retrieval.NewEngine(cb, retrieval.Options{}), sys, alloc.Options{NBest: 5, AllowPreemption: true, PowerWeight: 0.1}),
		mech: alloc.NewMechanism(cb, sys),
		inj:  fault.NewInjector(sys, plan),
		reqs: reqs,
	}
}

// at is the clock time of step i.
func at(i int) device.Micros { return device.Micros(i+1) * 1000 }

// churn is the client's half of step i: release the oldest held task
// once the window is full, re-place preempted work, then allocate.
func (r *rig) churn(i int) {
	if len(r.held) >= window {
		_ = r.m.Release(r.held[0])
		r.held = r.held[1:]
		r.m.ReplacePending()
	}
	if d, err := r.m.Request(fmt.Sprintf("app%d", i%8), r.reqs[i%len(r.reqs)], 1+i%9); err == nil {
		r.held = append(r.held, d.Task.ID)
	}
}

// placed counts the placements the devices hold.
func placed(sys *rtsys.System) int {
	n := 0
	for _, d := range sys.Devices() {
		n += len(d.Placements())
	}
	return n
}

// TestTickWorkBoundedByHistory is the history-growth gate. Over 20k
// allocate/release/advance steps with preemption and a fault storm, the
// walks a clock tick makes (AdvanceTo, BestWaiting, View, the fault
// victim pick) must visit no more tasks in the last 1k steps than in
// the first 1k, nor allocate more at step 20k than at step 1k (outside
// -race builds, whose instrumentation allocates); and the system must
// never hold a task that is neither placed nor waiting.
func TestTickWorkBoundedByHistory(t *testing.T) {
	const steps = 20_000
	r := newRig(t, 1801, steps, nil)
	probes := []struct {
		name string
		fn   func()
	}{
		{"AdvanceTo", func() { _ = r.sys.AdvanceTo(r.sys.Now()) }},
		{"BestWaiting", func() { r.mech.BestWaiting() }},
		{"View", func() { r.mech.View("node") }},
		// An SEU on a device that holds nothing walks to the end
		// without a victim and changes nothing.
		{"victim", func() {
			ghost := fault.Plan{Events: []fault.Event{{At: r.sys.Now(), Kind: fault.SEU, Device: "ghost"}}}
			_, _ = fault.NewInjector(r.sys, ghost).ApplyDue()
		}},
	}
	early := make([]uint64, len(probes))
	late := make([]uint64, len(probes))
	allocs := make([][2]float64, len(probes))
	for i := 0; i < steps; i++ {
		if _, err := r.inj.AdvanceTo(at(i)); err != nil {
			t.Fatal(err)
		}
		r.m.RecoverFromFaults()
		r.churn(i)
		if live, bound := len(r.sys.Tasks()), placed(r.sys)+r.mech.View("node").Waiting; live > bound {
			t.Fatalf("step %d: %d live tasks, only %d placed or waiting", i+1, live, bound)
		}
		for k, p := range probes {
			before := r.sys.Visits()
			p.fn()
			v := r.sys.Visits() - before
			switch {
			case i < 1000:
				early[k] = max(early[k], v)
			case i >= steps-1000:
				late[k] = max(late[k], v)
			}
			switch i + 1 {
			case 1000:
				allocs[k][0] = testing.AllocsPerRun(10, p.fn)
			case steps:
				allocs[k][1] = testing.AllocsPerRun(10, p.fn)
			}
		}
	}
	for k, p := range probes {
		t.Logf("%-11s visits ≤%d in steps 1-1000, ≤%d in steps %d-%d; allocs %.0f at 1k, %.0f at %d",
			p.name, early[k], late[k], steps-999, steps, allocs[k][0], allocs[k][1], steps)
		if late[k] > early[k] {
			t.Errorf("%s visits up to %d tasks late in the run, %d early: the walk grows with history", p.name, late[k], early[k])
		}
		if allocs[k][1] > allocs[k][0] && !raceEnabled {
			t.Errorf("%s allocates %.0f times at step %d, %.0f at step 1000", p.name, allocs[k][1], steps, allocs[k][0])
		}
	}
	if early[0] == 0 || early[3] == 0 {
		t.Errorf("the AdvanceTo and victim probes never walked: early visits %v", early)
	}
	if st := r.m.Stats(); st.Preemptions == 0 || st.Recovered == 0 || st.FaultRejected == 0 {
		t.Errorf("run misses a path the gate covers: %+v", st)
	}
}

// legacy is a test-only copy of the walk the live index replaced: every
// task the system ever issued, sorted by handle, then filtered. It keeps each task it saw live, so a finished task stays in
// it as Done, as it stayed in the old task map.
type legacy struct {
	sys    *rtsys.System
	all    map[rtsys.TaskID]*rtsys.Task
	seen   rtsys.TaskID
	sorted []*rtsys.Task // all, sorted by handle; nil after sync adds
}

// sync picks up the tasks issued since the last call. A task issued and
// finished in between is missed; it would be Done, which every walk of
// the old path filtered out.
func (l *legacy) sync() {
	for ; l.seen+1 < l.sys.NextID(); l.seen++ {
		if t, ok := l.sys.Task(l.seen + 1); ok {
			l.all[t.ID] = t
			l.sorted = nil
		}
	}
}

// tasks is the old sort-all-then-filter walk.
func (l *legacy) tasks(keep func(*rtsys.Task) bool) []*rtsys.Task {
	if l.sorted == nil {
		for _, t := range l.all {
			l.sorted = append(l.sorted, t)
		}
		sort.Slice(l.sorted, func(i, j int) bool { return l.sorted[i].ID < l.sorted[j].ID })
	}
	var out []*rtsys.Task
	for _, t := range l.sorted {
		if keep(t) {
			out = append(out, t)
		}
	}
	return out
}

func (l *legacy) bestWaiting() *rtsys.Task {
	ts := l.tasks(func(t *rtsys.Task) bool { return t.State == rtsys.Preempted })
	occ := make([]policy.Occupant, len(ts))
	for i, t := range ts {
		occ[i] = policy.Occupant{Task: int(t.ID), Prio: l.sys.EffectivePriority(t)}
	}
	if i, ok := policy.BestWaiting(occ); ok {
		return ts[i]
	}
	return nil
}

// advanceTrace is what the old AdvanceTo walk would append to the trace
// ring on advancing to the given time: "retry"/"run" per task, in
// handle order.
func (l *legacy) advanceTrace(to device.Micros) []string {
	var out []string
	for _, t := range l.tasks(func(t *rtsys.Task) bool { return t.State != rtsys.Done }) {
		st, ready := t.State, t.ReadyAt
		if st == rtsys.Recovering && t.NextRetryAt <= to {
			out = append(out, fmt.Sprintf("retry %d", t.ID))
			st, ready = rtsys.Configuring, t.NextRetryAt+t.ConfigCost
		}
		if st == rtsys.Configuring && ready <= to {
			out = append(out, fmt.Sprintf("run %d", t.ID))
		}
	}
	return out
}

func ids(ts []*rtsys.Task) []rtsys.TaskID {
	out := make([]rtsys.TaskID, len(ts))
	for i, t := range ts {
		out[i] = t.ID
	}
	return out
}

func stranded(t *rtsys.Task) bool { return t.Stranded() }

// TestLiveIndexMatchesSortAllWalk replays seeded storms and checks every
// walk over the live index against the old sort-all-then-filter walk:
// the trace AdvanceTo appends, each fault's victim, the order of the
// stranded sweep's recoveries, Tasks(), BestWaiting, the waiting and
// per-state counts, and the stranded count after every step.
func TestLiveIndexMatchesSortAllWalk(t *testing.T) {
	const steps = 1500
	var victims, retries, recovered, rejected, waiting int
	for _, seed := range []int64{3, 5, 7} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			reg := obs.NewRegistry()
			r := newRig(t, seed, steps, reg)
			trace := reg.Ring("qos_rtsys_trace", "", 0)
			leg := &legacy{sys: r.sys, all: make(map[rtsys.TaskID]*rtsys.Task)}

			r.inj.Subscribe(func(a fault.Applied) {
				var st rtsys.State
				switch a.Event.Kind {
				case fault.ConfigError:
					st = rtsys.Configuring
				case fault.SEU:
					st = rtsys.Running
				default:
					return
				}
				// The victim has left st by now; any task still in
				// st on the device must have a higher handle.
				cands := leg.tasks(func(t *rtsys.Task) bool { return t.State == st && t.Dev == a.Event.Device })
				if len(cands) > 0 && (a.NoVictim || cands[0].ID < a.Affected[0]) {
					t.Errorf("%s: victim %v, old walk picks %d", a.Event, a.Affected, cands[0].ID)
				}
				victims += len(a.Affected)
			})
			advance := func(to device.Micros) {
				want := leg.advanceTrace(to)
				before := trace.Total()
				if err := r.sys.AdvanceTo(to); err != nil {
					t.Fatal(err)
				}
				evs := trace.Events()
				var got []string
				for _, e := range evs[len(evs)-int(trace.Total()-before):] {
					var id int
					if _, err := fmt.Sscanf(e.Detail, "task %d:", &id); err != nil {
						t.Fatalf("trace detail %q: %v", e.Detail, err)
					}
					got = append(got, fmt.Sprintf("%s %d", e.Kind, id))
					if e.Kind == "retry" {
						retries++
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("advance to %d: trace %v, old walk %v", to, got, want)
				}
			}
			checkStranded := func(when string, i int) {
				brute := 0
				for _, tk := range r.sys.Tasks() {
					if tk.Stranded() {
						brute++
					}
				}
				if n := r.sys.StrandedCount(); n != brute {
					t.Fatalf("step %d %s: stranded count %d, %d live tasks stranded", i+1, when, n, brute)
				}
			}

			for i := 0; i < steps; i++ {
				// inj.AdvanceTo, unrolled so each clock move is checked.
				for {
					next, ok := r.inj.NextAt()
					if !ok || next > at(i) {
						break
					}
					advance(next)
					if _, err := r.inj.ApplyDue(); err != nil {
						t.Fatal(err)
					}
				}
				advance(at(i))
				checkStranded("after faults", i)

				want := ids(leg.tasks(stranded))
				var got []rtsys.TaskID
				for _, rec := range r.m.RecoverFromFaults() {
					got = append(got, rec.Task)
					if rec.Decision != nil {
						recovered++
					} else {
						rejected++
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("step %d: recovered %v, old sweep order %v", i+1, got, want)
				}
				checkStranded("after recovery", i)

				r.churn(i)
				leg.sync()
				checkStranded("after churn", i)
				live := leg.tasks(func(t *rtsys.Task) bool { return t.State != rtsys.Done })
				if fmt.Sprint(ids(r.sys.Tasks())) != fmt.Sprint(ids(live)) {
					t.Fatalf("step %d: Tasks() %v, old walk %v", i+1, ids(r.sys.Tasks()), ids(live))
				}
				if got, want := r.mech.BestWaiting(), leg.bestWaiting(); got != want {
					t.Fatalf("step %d: BestWaiting %v, old walk %v", i+1, got, want)
				} else if got != nil {
					waiting++
				}
				for st := rtsys.Pending; st <= rtsys.Recovering; st++ {
					if st == rtsys.Done {
						continue
					}
					if n, want := r.sys.Count(st), len(leg.tasks(func(t *rtsys.Task) bool { return t.State == st })); n != want {
						t.Fatalf("step %d: Count(%v) = %d, old walk %d", i+1, st, n, want)
					}
				}
				want = ids(leg.tasks(func(t *rtsys.Task) bool { return t.State == rtsys.Pending || t.State == rtsys.Preempted }))
				if v := r.mech.View("node"); v.Waiting != len(want) {
					t.Fatalf("step %d: View.Waiting %d, old walk %d", i+1, v.Waiting, len(want))
				}
			}

			// Instrumenting late primes the state gauges as the old
			// walk over every task did, Done included.
			late := obs.NewRegistry()
			r.sys.Instrument(late)
			for st := rtsys.Pending; st <= rtsys.Recovering; st++ {
				want := len(leg.tasks(func(t *rtsys.Task) bool { return t.State == st }))
				if st == rtsys.Done {
					want = r.sys.Metrics().Completed
				}
				if got := late.Gauge(fmt.Sprintf("qos_rtsys_tasks{state=%q}", st), "").Load(); got != int64(want) {
					t.Errorf("primed %v gauge = %d, want %d", st, got, want)
				}
			}
		})
	}
	t.Logf("victims %d, retries %d, recovered %d, rejected %d, steps with a preempted task %d",
		victims, retries, recovered, rejected, waiting)
	if victims == 0 || retries == 0 || recovered == 0 || rejected == 0 || waiting == 0 {
		t.Error("the storms miss a walk the test compares")
	}
}
