package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/retrieval"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"bitwidth", "bypass", "capacity", "compact", "faults",
		"fixedpoint", "latency", "learn", "learning", "mahalanobis", "nbest",
		"negotiate", "obs", "policy", "powertrade", "serve", "speedup",
		"system", "table1", "table2", "table3",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	if _, ok := ByID("table1"); !ok {
		t.Error("ByID(table1) missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) should miss")
	}
}

func TestTable1DataMatchesPaper(t *testing.T) {
	all, err := Table1Data()
	if err != nil {
		t.Fatal(err)
	}
	if all[0].Impl != 2 || math.Abs(all[0].Similarity-0.96) > 0.005 {
		t.Errorf("best = impl %d S=%.3f, want impl 2 S≈0.96", all[0].Impl, all[0].Similarity)
	}
}

func TestTable2ReportMatchesPaper(t *testing.T) {
	r := Table2Report()
	if r.Slices < 420 || r.Slices > 463 {
		t.Errorf("slices = %d, want 441 ± 5%%", r.Slices)
	}
	if r.BRAMs != 2 || r.Mults != 2 {
		t.Errorf("BRAM/MULT = %d/%d", r.BRAMs, r.Mults)
	}
	if math.Abs(r.FmaxMHz-75) > 5 {
		t.Errorf("fmax = %.1f", r.FmaxMHz)
	}
}

func TestTable3DataConsistent(t *testing.T) {
	rep, measured, err := Table3Data()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RequestBytes != 64 {
		t.Errorf("request bytes = %d, want 64 (Table 3)", rep.RequestBytes)
	}
	if rep.TreeBytes != measured {
		t.Errorf("closed form %d != encoder %d", rep.TreeBytes, measured)
	}
	// Same order of magnitude as the paper's ~4.5 kB.
	if rep.TreeBytes < 4000 || rep.TreeBytes > 9000 {
		t.Errorf("tree bytes = %d, out of the paper's ballpark", rep.TreeBytes)
	}
}

func TestSpeedupSweepShape(t *testing.T) {
	pts, err := SpeedupSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Speedup < 3 {
			t.Errorf("shape %dx%dx%d: speedup %.2f too low — hardware must win clearly",
				p.Types, p.Impls, p.Attrs, p.Speedup)
		}
		if p.Speedup > 30 {
			t.Errorf("shape %dx%dx%d: speedup %.2f implausibly high", p.Types, p.Impls, p.Attrs, p.Speedup)
		}
		// The barrel-shifter core is faster software, so its speedup
		// over hardware is smaller.
		if p.BarrelSpeedup > p.Speedup {
			t.Errorf("barrel-shifter software slower than base? %+v", p)
		}
	}
	t.Logf("paper-scale (15x10x10) speedup: %.2fx (paper: 8.5x)", pts[2].Speedup)
}

func TestFixedPointRunAgrees(t *testing.T) {
	d, err := FixedPointRun(40)
	if err != nil {
		t.Fatal(err)
	}
	if d.Disagreements != 0 {
		t.Errorf("fixed point disagreed on %d unambiguous trials", d.Disagreements)
	}
	if d.Agree == 0 {
		t.Error("no unambiguous agreement recorded")
	}
	if d.WorstAbsErr > 0.01 {
		t.Errorf("worst similarity error = %v", d.WorstAbsErr)
	}
}

func TestCompactSweepMeetsFactorTwo(t *testing.T) {
	pts, err := CompactSweep()
	if err != nil {
		t.Fatal(err)
	}
	// The §5 estimate: at least factor 2 at realistic scale (the
	// largest shapes are fetch-dominated).
	last := pts[len(pts)-1]
	if last.Speedup < 1.8 {
		t.Errorf("compact speedup at scale = %.2f, want ≈2x", last.Speedup)
	}
}

func TestBypassSweepMonotone(t *testing.T) {
	pts, err := BypassSweep()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].RetrievalsSaved+0.02 < pts[i-1].RetrievalsSaved {
			t.Errorf("savings not monotone: %+v then %+v", pts[i-1], pts[i])
		}
	}
	if pts[0].TokenHits != 0 {
		t.Errorf("zero-repeat stream recorded %d token hits", pts[0].TokenHits)
	}
	last := pts[len(pts)-1]
	if last.RetrievalsSaved < 0.5 {
		t.Errorf("high-repeat stream saved only %.1f%%", 100*last.RetrievalsSaved)
	}
}

func TestSystemRunAllocatesEverything(t *testing.T) {
	res, err := SystemRun()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Errorf("failures = %d, the platform should fit the fig. 1 mix", res.Failures)
	}
	if len(res.Decisions) != 6 {
		t.Errorf("decisions = %d, want 6 (one per app step)", len(res.Decisions))
	}
	if res.PeakPowerMW == 0 {
		t.Error("power accounting dead")
	}
	// The ECU's engine-control request must land on the FPGA (its
	// latency constraint only the hardware variant satisfies well).
	foundECU := false
	for _, d := range res.Decisions {
		if d.App == "automotive-ecu" && d.Type == 5 {
			foundECU = true
			if !strings.HasPrefix(string(d.Device), "fpga") {
				t.Errorf("engine control landed on %s, want an FPGA", d.Device)
			}
		}
	}
	if !foundECU {
		t.Error("engine-control decision missing")
	}
}

func TestMahalanobisRunMostlyAgrees(t *testing.T) {
	d, err := MahalanobisRun()
	if err != nil {
		t.Fatal(err)
	}
	if d.Requests == 0 {
		t.Fatal("no requests compared")
	}
	// The paper calls the method "very effective concerning the
	// results": the two measures should usually agree, and when they
	// differ the eq. winner should still rank near the top.
	if rate := float64(d.Agree) / float64(d.Requests); rate < 0.5 {
		t.Errorf("agreement rate %.2f implausibly low", rate)
	}
	if d.MeanRank > 3 {
		t.Errorf("mean rank of eq. winner = %.2f, too deep", d.MeanRank)
	}
	if d.OpsMahal <= d.OpsLinear {
		t.Error("Mahalanobis must cost more arithmetic")
	}
}

func TestBitwidthSixteenMatchesFixedEngine(t *testing.T) {
	// The width-parameterized scorer at w=16 must reproduce the Q15
	// engine bit-for-bit — otherwise the sweep measures the wrong
	// arithmetic.
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	fe, err := retrieval.NewFixedEngine(cb)
	if err != nil {
		t.Fatal(err)
	}
	req := casebase.PaperRequest()
	qs, err := fe.ScoreType(req)
	if err != nil {
		t.Fatal(err)
	}
	ft, _ := cb.Type(req.Type)
	for i := range ft.Impls {
		im := &ft.Impls[i]
		want := qs[i]
		got := scoreAtWidth(cb, im, req, 16)
		if int64(want) != got {
			t.Errorf("impl %d: width-16 scorer %d != Q15 engine %d", im.ID, got, want)
		}
	}
}

func TestBitwidthSweepShape(t *testing.T) {
	pts, err := BitwidthSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	// Agreement must be non-decreasing in width and saturate at 16.
	for i := 1; i < len(pts); i++ {
		if pts[i].Agree < pts[i-1].Agree {
			t.Errorf("agreement not monotone: %d bits %d vs %d bits %d",
				pts[i-1].Bits, pts[i-1].Agree, pts[i].Bits, pts[i].Agree)
		}
		if pts[i].WorstAbsErr > pts[i-1].WorstAbsErr {
			t.Errorf("error not shrinking with width")
		}
	}
	last := pts[len(pts)-1]
	if last.Agree != last.Trials {
		t.Errorf("16-bit agreement %d of %d — the paper's sufficiency claim fails", last.Agree, last.Trials)
	}
	if pts[0].Agree == pts[0].Trials {
		t.Error("6-bit datapath should visibly misrank — sweep not discriminating")
	}
}

func TestCapacitySweepMonotone(t *testing.T) {
	pts, err := CapacitySweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	first, last := pts[0], pts[len(pts)-1]
	if last.Failed >= first.Failed {
		t.Errorf("more slots must reduce failures: %d -> %d", first.Failed, last.Failed)
	}
	if last.Preemptions >= first.Preemptions {
		t.Errorf("more slots must reduce preemptions: %d -> %d", first.Preemptions, last.Preemptions)
	}
	for _, p := range pts {
		if p.Placed+p.Failed != 200 {
			t.Errorf("slots=%d: placed+failed = %d, want 200", p.FPGASlots, p.Placed+p.Failed)
		}
	}
}

func TestLearningRunImproves(t *testing.T) {
	d, err := LearningRun()
	if err != nil {
		t.Fatal(err)
	}
	if d.DriftedImpls == 0 {
		t.Fatal("scenario generated no drift")
	}
	if d.Rebuilds == 0 {
		t.Fatal("no rebuilds happened")
	}
	if d.MeanSimLearning <= d.MeanSimStatic {
		t.Errorf("learning (%.3f) must beat static (%.3f)",
			d.MeanSimLearning, d.MeanSimStatic)
	}
}

// TestLearningRunPinned pins every E13 field to the exact float bits, so
// a change to the revise/rebuild path that shifts any rounding shows up
// here rather than only in the three-decimal rendering.
func TestLearningRunPinned(t *testing.T) {
	d, err := LearningRun()
	if err != nil {
		t.Fatal(err)
	}
	if d.Requests != 240 || d.DriftedImpls != 17 || d.Rebuilds != 6 {
		t.Errorf("counts = %d requests, %d drifted, %d rebuilds; want 240, 17, 6",
			d.Requests, d.DriftedImpls, d.Rebuilds)
	}
	if got := math.Float64bits(d.MeanSimStatic); got != 0x3fe81131572ddfc1 {
		t.Errorf("MeanSimStatic bits = %#x, want 0x3fe81131572ddfc1", got)
	}
	if got := math.Float64bits(d.MeanSimLearning); got != 0x3fe8bb11ec3443c3 {
		t.Errorf("MeanSimLearning bits = %#x, want 0x3fe8bb11ec3443c3", got)
	}
}

func TestPolicyRunOrdering(t *testing.T) {
	rs, err := PolicyRun()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("policies = %d", len(rs))
	}
	byName := map[string]PolicyResult{}
	for _, r := range rs {
		byName[r.Name] = r
	}
	cbr, swo, ff := byName["qos-cbr"], byName["software-only"], byName["first-fit"]
	// The paper's motivation: QoS-aware selection beats both fixed
	// strategies on delivered QoS similarity.
	if cbr.MeanSim <= swo.MeanSim || cbr.MeanSim <= ff.MeanSim {
		t.Errorf("qos-cbr S=%.3f must beat software-only %.3f and first-fit %.3f",
			cbr.MeanSim, swo.MeanSim, ff.MeanSim)
	}
	// Software-only collapses under load (the §1 weak point).
	if swo.Failed <= cbr.Failed {
		t.Errorf("software-only should fail more: %d vs %d", swo.Failed, cbr.Failed)
	}
	if cbr.Placed == 0 || cbr.MeanPowerW <= 0 {
		t.Errorf("qos-cbr result degenerate: %+v", cbr)
	}
}

func TestLatencyRunOrdering(t *testing.T) {
	stats, err := LatencyRun()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("targets = %d", len(stats))
	}
	byTarget := map[casebase.Target]LatencyStats{}
	for _, s := range stats {
		byTarget[s.Target] = s
		if s.Count < 20 {
			t.Errorf("%v placed only %d — scenario starved", s.Target, s.Count)
		}
		if s.P50Us > s.P95Us || s.P95Us > s.MaxUs {
			t.Errorf("%v percentiles inverted: %+v", s.Target, s)
		}
	}
	// The paper's trade: FPGA (bitstream over the serialized port) is
	// the slowest to become ready, the GPP the fastest.
	if !(byTarget[casebase.TargetFPGA].MeanUs > byTarget[casebase.TargetDSP].MeanUs &&
		byTarget[casebase.TargetDSP].MeanUs > byTarget[casebase.TargetGPP].MeanUs) {
		t.Errorf("latency ordering violated: FPGA %.0f, DSP %.0f, GPP %.0f",
			byTarget[casebase.TargetFPGA].MeanUs,
			byTarget[casebase.TargetDSP].MeanUs,
			byTarget[casebase.TargetGPP].MeanUs)
	}
}

func TestPowerTradeSweep(t *testing.T) {
	pts, err := PowerTradeSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].PowerWeight != 0 {
		t.Fatal("first point must be the paper policy")
	}
	// Moderate power weights must reduce platform power below the
	// pure-similarity baseline while similarity degrades gracefully.
	base := pts[0]
	mid := pts[2] // weight 1.0
	if mid.MeanPowerW >= base.MeanPowerW {
		t.Errorf("power weight must reduce power: %.2f -> %.2f W", base.MeanPowerW, mid.MeanPowerW)
	}
	if mid.MeanSim > base.MeanSim {
		t.Errorf("similarity should not improve for free: %.3f -> %.3f", base.MeanSim, mid.MeanSim)
	}
	if base.MeanSim-mid.MeanSim > 0.1 {
		t.Errorf("similarity collapse: %.3f -> %.3f", base.MeanSim, mid.MeanSim)
	}
}

func TestRunAllRenders(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, e := range All() {
		if !strings.Contains(out, e.ID) {
			t.Errorf("output missing experiment %q", e.ID)
		}
	}
	if len(out) < 2000 {
		t.Errorf("suspiciously short report (%d bytes)", len(out))
	}
}
