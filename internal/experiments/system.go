package experiments

import (
	"fmt"
	"io"
	"sort"

	"qosalloc/internal/alloc"
	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/rtsys"
	"qosalloc/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "system",
		Title: "End-to-end allocation of the fig. 1 application mix",
		Paper: "fig. 1 platform: FPGAs + DSP + CPU, QoS negotiation, preemption of lower-priority tasks",
		Run:   System,
	})
}

// SystemResult summarizes the end-to-end run.
type SystemResult struct {
	Decisions   []SystemDecision
	Failures    int
	Preemptions int
	PeakPowerMW int
	Completed   int
}

// SystemDecision is one timeline entry.
type SystemDecision struct {
	At         device.Micros
	App        string
	Type       casebase.TypeID
	Impl       casebase.ImplID
	Device     device.ID
	Similarity float64
	ReadyAt    device.Micros
	Preempted  int
	ViaToken   bool
}

// SystemRun plays the fig. 1 application mix against a two-FPGA + DSP +
// GPP platform through the allocation manager.
func SystemRun() (SystemResult, error) {
	cb, _, err := workload.InfotainmentCaseBase()
	if err != nil {
		return SystemResult{}, err
	}
	repo := device.NewRepository(20)
	if err := repo.PopulateFromCaseBase(cb); err != nil {
		return SystemResult{}, err
	}
	fpga0 := device.NewFPGA("fpga0", []device.Slot{
		{Slices: 1500, BRAMs: 8, Multipliers: 16},
		{Slices: 1500, BRAMs: 8, Multipliers: 16},
	}, 66)
	fpga1 := device.NewFPGA("fpga1", []device.Slot{
		{Slices: 1000, BRAMs: 4, Multipliers: 8},
	}, 66)
	dsp := device.NewProcessor("dsp0", casebase.TargetDSP, 1000, 192*1024)
	gpp := device.NewProcessor("gpp0", casebase.TargetGPP, 1000, 512*1024)
	sys := rtsys.NewSystem(repo, fpga0, fpga1, dsp, gpp)
	m := alloc.New(retrieval.NewEngine(cb, retrieval.Options{Threshold: 0.3}), sys, alloc.Options{
		NBest: 3, AllowPreemption: true, UseBypassTokens: true,
	})

	// Flatten the app scripts into a time-ordered event list.
	type ev struct {
		at   device.Micros
		app  string
		prio int
		req  casebase.Request
		hold device.Micros
	}
	var evs []ev
	for _, app := range workload.Apps() {
		for _, st := range app.Steps {
			evs = append(evs, ev{at: st.At, app: app.Name, prio: app.Prio, req: st.Req, hold: st.Hold})
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })

	type lease struct {
		task rtsys.TaskID
		end  device.Micros
	}
	var leases []lease
	var res SystemResult

	release := func(now device.Micros) {
		kept := leases[:0]
		for _, l := range leases {
			if l.end <= now {
				_ = m.Release(l.task) // an already finished task only returns an error
				continue
			}
			kept = append(kept, l)
		}
		leases = kept
		// Freed capacity may readmit preempted work.
		m.ReplacePending()
	}

	for _, e := range evs {
		if err := sys.AdvanceTo(e.at); err != nil {
			return res, err
		}
		release(e.at)
		d, err := m.Request(e.app, e.req, e.prio)
		if err != nil {
			res.Failures++
			continue
		}
		leases = append(leases, lease{task: d.Task.ID, end: e.at + e.hold})
		res.Decisions = append(res.Decisions, SystemDecision{
			At: e.at, App: e.app, Type: e.req.Type, Impl: d.Impl,
			Device: d.Device, Similarity: d.Similarity, ReadyAt: d.ReadyAt,
			Preempted: len(d.Preempted), ViaToken: d.ViaToken,
		})
		if p := sys.PowerMW(); p > res.PeakPowerMW {
			res.PeakPowerMW = p
		}
	}
	// Drain.
	if err := sys.AdvanceTo(2_000_000); err != nil {
		return res, err
	}
	release(2_000_000)
	res.Preemptions = sys.Metrics().Preemptions
	res.Completed = sys.Metrics().Completed
	return res, nil
}

// System renders the E10 timeline.
func System(w io.Writer) error {
	res, err := SystemRun()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-15s %-6s %-6s %-8s %6s %10s %s\n",
		"t (us)", "app", "type", "impl", "device", "S", "ready(us)", "notes")
	for _, d := range res.Decisions {
		notes := ""
		if d.Preempted > 0 {
			notes = fmt.Sprintf("preempted %d task(s)", d.Preempted)
		}
		if d.ViaToken {
			notes += " [bypass token]"
		}
		fmt.Fprintf(w, "%-10d %-15s %-6d %-6d %-8s %6.2f %10d %s\n",
			d.At, d.App, d.Type, d.Impl, d.Device, d.Similarity, d.ReadyAt, notes)
	}
	fmt.Fprintf(w, "\nallocations: %d   failures: %d   preemptions: %d   completed: %d   peak power: %d mW\n",
		len(res.Decisions), res.Failures, res.Preemptions, res.Completed, res.PeakPowerMW)
	return nil
}
