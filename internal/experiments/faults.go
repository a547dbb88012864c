package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"qosalloc/internal/alloc"
	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/fault"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/rtsys"
	"qosalloc/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "faults",
		Title: "Allocation survival under an injected fault storm",
		Paper: "§2: \"an alternative implementation can be offered to the calling application\" — here forced by device faults instead of load",
		Run:   FaultSweep,
	})
}

// FaultSweepSpec parameterizes the sweep.
type FaultSweepSpec struct {
	// Requests is the synthetic stream length. Zero means 400.
	Requests int
	// Seed drives both the workload and, when Plan is nil, the storm.
	Seed int64
	// Plan overrides the generated storm with a scripted schedule.
	Plan *fault.Plan
}

// FaultSweepData summarizes one sweep.
type FaultSweepData struct {
	Requests int
	Granted  int
	Denied   int // ordinary admission failures (no capacity/threshold)

	EventsApplied int
	NoVictim      int // faults that hit idle capacity
	Stranded      int // tasks knocked off their device
	ConfigErrors  int
	SEUs          int
	Retries       int

	Recovered int // stranded tasks re-placed by degrade-and-retry
	Degraded  int // …of which on a worse-matching variant
	Rejected  int // stranded tasks rejected with a DegradationReport
	Dropped   int // stranded tasks left unresolved — must be zero

	// Recovery latency: fault hit → substitute placement ready.
	RecMeanUs float64
	RecP95Us  device.Micros
	RecMaxUs  device.Micros

	// LostAttrsTotal sums the QoS attributes named across all
	// degradations and rejections — the "what did we lose" signal.
	LostAttrsTotal int
}

// FaultSweepRun replays a request stream while a fault storm (or a
// scripted plan) kills slots and devices and corrupts configurations,
// then lets the allocation layer's degrade-and-retry policy re-place or
// reject every stranded task. Fully deterministic for a fixed spec.
func FaultSweepRun(spec FaultSweepSpec) (FaultSweepData, error) {
	if spec.Requests <= 0 {
		spec.Requests = 400
	}
	var d FaultSweepData

	cb, reg, err := workload.GenCaseBase(workload.PaperScale())
	if err != nil {
		return d, err
	}
	reqs, err := workload.GenRequests(cb, reg, workload.RequestStreamSpec{
		N: spec.Requests, ConstraintsPer: 4, RepeatFraction: 0.3, Seed: spec.Seed,
	})
	if err != nil {
		return d, err
	}
	repo := device.NewRepository(20)
	if err := repo.PopulateFromCaseBase(cb); err != nil {
		return d, err
	}
	slots := []device.Slot{
		{Slices: 1500, BRAMs: 8, Multipliers: 16},
		{Slices: 1500, BRAMs: 8, Multipliers: 16},
		{Slices: 1500, BRAMs: 8, Multipliers: 16},
	}
	sys := rtsys.NewSystem(repo,
		device.NewFPGA("fpga0", slots, 66),
		device.NewFPGA("fpga1", slots, 66),
		device.NewProcessor("dsp0", casebase.TargetDSP, 2000, 1<<20),
		device.NewProcessor("gpp0", casebase.TargetGPP, 2000, 1<<21),
	)
	m := alloc.New(retrieval.NewEngine(cb, retrieval.Options{}), sys, alloc.Options{
		NBest: 5, AllowPreemption: true, UseBypassTokens: true,
	})

	plan := fault.Plan{}
	if spec.Plan != nil {
		plan = *spec.Plan
	} else {
		r := rand.New(rand.NewSource(spec.Seed))
		horizon := device.Micros(spec.Requests) * 1000
		plan, err = fault.Storm(r, fault.StormSpec{
			Horizon:   horizon,
			SlotFails: 3, DeviceFails: 1, ConfigErrors: 8, SEUs: 6,
			Targets: []fault.StormTarget{
				{Device: "fpga0", Slots: len(slots)},
				{Device: "fpga1", Slots: len(slots)},
				{Device: "dsp0"},
			},
		})
		if err != nil {
			return d, err
		}
	}
	inj := fault.NewInjector(sys, plan)

	var lats []device.Micros
	absorb := func(recs []alloc.Recovery) {
		for _, rec := range recs {
			switch {
			case rec.Decision != nil:
				d.Recovered++
				lats = append(lats, rec.Decision.ReadyAt-sys.Now())
				if rec.Decision.Degraded != nil {
					d.Degraded++
					d.LostAttrsTotal += len(rec.Decision.Degraded.LostAttrs)
				}
			case rec.Report != nil:
				d.Rejected++
				d.LostAttrsTotal += len(rec.Report.LostAttrs)
			}
		}
	}

	var live []rtsys.TaskID
	for i, req := range reqs {
		applied, err := inj.AdvanceTo(device.Micros(i+1) * 1000)
		if err != nil {
			return d, err
		}
		for _, a := range applied {
			d.EventsApplied++
			if a.NoVictim {
				d.NoVictim++
			}
		}
		if len(applied) > 0 {
			absorb(m.RecoverFromFaults())
		}
		if len(live) >= 12 {
			_ = m.Release(live[0])
			live = live[1:]
			m.ReplacePending()
		}
		dec, err := m.Request(fmt.Sprintf("app%d", i%8), req, 1+i%9)
		if err != nil {
			d.Denied++
			continue
		}
		d.Granted++
		live = append(live, dec.Task.ID)
	}
	// Drain: fire any remaining faults, give retries time to resolve,
	// run a final recovery sweep.
	if _, err := inj.AdvanceTo(sys.Now() + 100_000); err != nil {
		return d, err
	}
	absorb(m.RecoverFromFaults())

	mt := sys.Metrics()
	d.Requests = len(reqs)
	d.Stranded = mt.Stranded
	d.ConfigErrors = mt.ConfigErrors
	d.SEUs = mt.SEUs
	d.Retries = mt.Retries
	d.Dropped = sys.StrandedCount()
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum float64
		for _, l := range lats {
			sum += float64(l)
		}
		d.RecMeanUs = sum / float64(len(lats))
		d.RecP95Us = lats[len(lats)*95/100]
		d.RecMaxUs = lats[len(lats)-1]
	}
	return d, nil
}

// FaultSweep renders the sweep.
func FaultSweep(w io.Writer) error {
	d, err := FaultSweepRun(FaultSweepSpec{Seed: 7})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "requests:            %d (granted %d, denied %d)\n", d.Requests, d.Granted, d.Denied)
	fmt.Fprintf(w, "faults applied:      %d (%d hit idle capacity)\n", d.EventsApplied, d.NoVictim)
	fmt.Fprintf(w, "  config errors:     %d (reconfig retries fired: %d)\n", d.ConfigErrors, d.Retries)
	fmt.Fprintf(w, "  SEU hits:          %d\n", d.SEUs)
	fmt.Fprintf(w, "tasks stranded:      %d\n", d.Stranded)
	fmt.Fprintf(w, "  re-placed:         %d (degraded: %d)\n", d.Recovered, d.Degraded)
	fmt.Fprintf(w, "  rejected w/report: %d\n", d.Rejected)
	fmt.Fprintf(w, "  dropped silently:  %d\n", d.Dropped)
	fmt.Fprintf(w, "QoS attrs lost:      %d (named across degradations/rejections)\n", d.LostAttrsTotal)
	if d.Recovered > 0 {
		fmt.Fprintf(w, "recovery latency:    mean %.0f us, p95 %d us, max %d us\n",
			d.RecMeanUs, d.RecP95Us, d.RecMaxUs)
	}
	fmt.Fprintf(w, "\nEvery fault-stranded task is either re-placed on an alternative\n")
	fmt.Fprintf(w, "variant (falling down the similarity-ranked N-best list) or rejected\n")
	fmt.Fprintf(w, "with a structured DegradationReport naming the lost QoS attributes —\n")
	fmt.Fprintf(w, "the paper's negotiation contract, upheld under hardware failure.\n")
	return nil
}
