package experiments

import (
	"fmt"
	"io"

	"qosalloc/internal/alloc"
	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/rtsys"
	"qosalloc/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "powertrade",
		Title: "Similarity-vs-power trade-off of the allocation policy",
		Paper: "§1: \"we conceive to gain increases of system-performance and energy/power-efficiency\"",
		Run:   PowerTrade,
	})
}

// PowerTradePoint is one point of the Pareto sweep.
type PowerTradePoint struct {
	PowerWeight float64
	MeanSim     float64
	MeanPowerW  float64
	Placed      int
	Failed      int
}

// PowerTradeSweep replays the same stream with growing power weight: at
// zero the manager ranks purely by similarity (the paper's policy);
// larger weights sacrifice similarity for lower-power variants, tracing
// the quality/power Pareto front the introduction's efficiency goal
// implies.
func PowerTradeSweep() ([]PowerTradePoint, error) {
	cb, reg, err := workload.GenCaseBase(workload.PaperScale())
	if err != nil {
		return nil, err
	}
	reqs, err := workload.GenRequests(cb, reg, workload.RequestStreamSpec{
		N: 200, ConstraintsPer: 4, Seed: 616,
	})
	if err != nil {
		return nil, err
	}

	var out []PowerTradePoint
	for _, pw := range []float64{0, 0.5, 1, 2, 4} {
		repo := device.NewRepository(20)
		if err := repo.PopulateFromCaseBase(cb); err != nil {
			return nil, err
		}
		sys := rtsys.NewSystem(repo,
			device.NewFPGA("fpga0", []device.Slot{
				{Slices: 1500, BRAMs: 8, Multipliers: 16},
				{Slices: 1500, BRAMs: 8, Multipliers: 16},
				{Slices: 1500, BRAMs: 8, Multipliers: 16},
			}, 66),
			device.NewProcessor("dsp0", casebase.TargetDSP, 2000, 1<<20),
			device.NewProcessor("gpp0", casebase.TargetGPP, 2000, 1<<21),
		)
		m := alloc.New(retrieval.NewEngine(cb, retrieval.Options{}), sys, alloc.Options{NBest: 3, PowerWeight: pw})

		pt := PowerTradePoint{PowerWeight: pw}
		var simSum, powSum float64
		var live []rtsys.TaskID
		for i, req := range reqs {
			_ = sys.Advance(1000)
			if len(live) >= 12 {
				_ = m.Release(live[0])
				live = live[1:]
			}
			d, err := m.Request(fmt.Sprintf("a%d", i), req, 5)
			if err != nil {
				pt.Failed++
			} else {
				pt.Placed++
				simSum += d.Similarity
				live = append(live, d.Task.ID)
			}
			powSum += float64(sys.PowerMW())
		}
		if pt.Placed > 0 {
			pt.MeanSim = simSum / float64(pt.Placed)
		}
		pt.MeanPowerW = powSum / float64(len(reqs)) / 1000
		out = append(out, pt)
	}
	return out, nil
}

// PowerTrade renders the sweep.
func PowerTrade(w io.Writer) error {
	pts, err := PowerTradeSweep()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %10s %12s %8s %8s\n", "power weight", "mean S", "mean power", "placed", "failed")
	for _, p := range pts {
		fmt.Fprintf(w, "%-12.1f %10.3f %9.2f W %8d %8d\n",
			p.PowerWeight, p.MeanSim, p.MeanPowerW, p.Placed, p.Failed)
	}
	fmt.Fprintf(w, "\nWeight 0 is the paper's pure-similarity ranking; growing weights\n")
	fmt.Fprintf(w, "buy platform power with QoS similarity, tracing the Pareto front\n")
	fmt.Fprintf(w, "behind the introduction's energy-efficiency motivation.\n")
	return nil
}
