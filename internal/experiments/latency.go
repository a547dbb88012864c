package experiments

import (
	"fmt"
	"io"
	"math/rand"
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
		ID:    "latency",
		Title: "Function-ready latency by execution target",
		Paper: "§1: soft time constraints; §3: bitstream/opcode fetch from the FLASH repository gates instantiation",
		Run:   Latency,
	})
}

// LatencyStats summarizes ready-latency for one target class.
type LatencyStats struct {
	Target casebase.Target
	Count  int
	MeanUs float64
	P50Us  device.Micros
	P95Us  device.Micros
	MaxUs  device.Micros
}

// LatencyRun replays a Poisson-like arrival stream and measures, per
// execution target, how long a granted function takes to become usable:
// allocation decision + repository fetch + reconfiguration or program
// load. The split by target shows the paper's fundamental trade —
// hardware variants match QoS best but pay tens of milliseconds of
// bitstream transfer, software variants start in microseconds.
func LatencyRun() ([]LatencyStats, error) {
	cb, reg, err := workload.GenCaseBase(workload.PaperScale())
	if err != nil {
		return nil, err
	}
	reqs, err := workload.GenRequests(cb, reg, workload.RequestStreamSpec{
		N: 300, ConstraintsPer: 4, Seed: 909,
	})
	if err != nil {
		return nil, err
	}
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
	m := alloc.New(retrieval.NewEngine(cb, retrieval.Options{}), sys, alloc.Options{NBest: 3})

	// Exponential-ish inter-arrival times (mean 1.5 ms), deterministic
	// seed.
	r := rand.New(rand.NewSource(31))
	lat := map[casebase.Target][]device.Micros{}
	var live []rtsys.TaskID
	for i, req := range reqs {
		dt := device.Micros(1 + r.ExpFloat64()*1500)
		if err := sys.Advance(dt); err != nil {
			return nil, err
		}
		if len(live) >= 8 {
			_ = m.Release(live[0])
			live = live[1:]
		}
		d, err := m.Request(fmt.Sprintf("a%d", i), req, 5)
		if err != nil {
			continue
		}
		live = append(live, d.Task.ID)
		lat[d.Target] = append(lat[d.Target], d.ReadyAt-sys.Now())
	}

	var out []LatencyStats
	for _, target := range []casebase.Target{casebase.TargetFPGA, casebase.TargetDSP, casebase.TargetGPP} {
		ls := lat[target]
		if len(ls) == 0 {
			continue
		}
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		var sum float64
		for _, v := range ls {
			sum += float64(v)
		}
		out = append(out, LatencyStats{
			Target: target,
			Count:  len(ls),
			MeanUs: sum / float64(len(ls)),
			P50Us:  ls[len(ls)/2],
			P95Us:  ls[len(ls)*95/100],
			MaxUs:  ls[len(ls)-1],
		})
	}
	return out, nil
}

// Latency renders the E17 distribution.
func Latency(w io.Writer) error {
	stats, err := LatencyRun()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-9s %7s %12s %10s %10s %10s\n", "target", "placed", "mean", "p50", "p95", "max")
	for _, s := range stats {
		fmt.Fprintf(w, "%-9s %7d %9.0f us %7d us %7d us %7d us\n",
			s.Target, s.Count, s.MeanUs, s.P50Us, s.P95Us, s.MaxUs)
	}
	fmt.Fprintf(w, "\nHardware variants pay the FLASH fetch plus the serialized\n")
	fmt.Fprintf(w, "reconfiguration port (milliseconds); software variants start in\n")
	fmt.Fprintf(w, "tens to hundreds of microseconds — the reason the §3 bypass token\n")
	fmt.Fprintf(w, "and the feasibility check against already-resident functions matter.\n")
	return nil
}
