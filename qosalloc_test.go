package qosalloc_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"qosalloc"
)

// Example reproduces the paper's headline retrieval through the public
// API alone.
func Example() {
	cb, err := qosalloc.PaperCaseBase()
	if err != nil {
		panic(err)
	}
	eng := qosalloc.NewRetrievalEngine(cb)
	best, err := eng.Retrieve(qosalloc.PaperRequest())
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s on %s, S = %.2f\n", best.Name, best.Target, best.Similarity)
	// Output: fir-eq-dsp on DSP, S = 0.96
}

// ExampleNewCaseBaseBuilder shows declaring a custom function library.
func ExampleNewCaseBaseBuilder() {
	reg := qosalloc.NewRegistry()
	reg.MustDefine(qosalloc.AttrDef{ID: 1, Name: "bitwidth", Unit: "bits",
		Kind: qosalloc.Numeric, Lo: 8, Hi: 32})

	b := qosalloc.NewCaseBaseBuilder(reg)
	b.AddType(1, "filter")
	b.AddImpl(1, qosalloc.Implementation{
		ID: 1, Name: "filter-hw", Target: qosalloc.TargetFPGA,
		Attrs: []qosalloc.AttrPair{{ID: 1, Value: 16}},
	})
	cb, err := b.Build()
	if err != nil {
		panic(err)
	}
	fmt.Println(cb.NumTypes(), cb.NumImpls())
	// Output: 1 1
}

// ExampleHWRetrieve runs the cycle-accurate hardware unit.
func ExampleHWRetrieve() {
	cb, _ := qosalloc.PaperCaseBase()
	res, err := qosalloc.HWRetrieve(cb, qosalloc.PaperRequest(), qosalloc.HWConfig{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("impl %d, S = %.2f\n", res.ImplID, res.Sim.Float())
	// Output: impl 2, S = 0.96
}

func TestFacadeFourEnginesAgree(t *testing.T) {
	cb, err := qosalloc.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	req := qosalloc.PaperRequest()

	eng := qosalloc.NewRetrievalEngine(cb)
	ref, err := eng.Retrieve(req)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := qosalloc.NewFixedEngine(cb)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fe.Retrieve(req)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := qosalloc.HWRetrieve(cb, req, qosalloc.HWConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := qosalloc.NewSWRunner().Retrieve(cb, req)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Impl != 2 || fx.Impl != 2 || hw.ImplID != 2 || sw.ImplID != 2 {
		t.Errorf("engines disagree on best: float=%d fixed=%d hw=%d sw=%d",
			ref.Impl, fx.Impl, hw.ImplID, sw.ImplID)
	}
	if fx.Similarity != qosalloc.Q15(hw.Sim) || hw.Sim != sw.Sim {
		t.Errorf("fixed-point similarities differ: fixed=%d hw=%d sw=%d",
			fx.Similarity, hw.Sim, sw.Sim)
	}
	if math.Abs(ref.Similarity-fx.Similarity.Float()) > 0.001 {
		t.Errorf("float %.4f vs fixed %.4f", ref.Similarity, fx.Similarity.Float())
	}
}

// TestFacadeNewFixedEngineRejectsOversizedImage: the facade passes on
// the kernel's refusal of a case base whose compacted image exceeds the
// 16-bit word-address space (64×64×16, the perfbench scan_large shape).
func TestFacadeNewFixedEngineRejectsOversizedImage(t *testing.T) {
	cb, _, err := qosalloc.GenCaseBase(qosalloc.CaseBaseSpec{
		Types: 64, ImplsPerType: 64, AttrsPerImpl: 16, AttrUniverse: 32, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := qosalloc.NewFixedEngine(cb)
	if err == nil || fe != nil {
		t.Fatalf("oversized case base: engine %v, err %v; want nil engine and an error", fe, err)
	}
	if !strings.Contains(err.Error(), "16-bit") {
		t.Errorf("error %q does not name the 16-bit limit", err)
	}
}

func TestFacadeMemoryImages(t *testing.T) {
	cb, _ := qosalloc.PaperCaseBase()
	tree, err := qosalloc.EncodeTree(cb)
	if err != nil {
		t.Fatal(err)
	}
	req, err := qosalloc.EncodeRequest(qosalloc.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	supp := qosalloc.EncodeSupplemental(cb.Registry())
	u := qosalloc.NewHWUnit(tree, supp, req, qosalloc.HWConfig{})
	res, err := u.Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.ImplID != 2 {
		t.Errorf("unit over explicit images: best = %d", res.ImplID)
	}
	rep := qosalloc.MemoryFootprint(15, 10, 10, 10, 10)
	if rep.RequestBytes != 64 {
		t.Errorf("request bytes = %d", rep.RequestBytes)
	}
}

func TestFacadeSynthesis(t *testing.T) {
	r := qosalloc.EstimateSynthesis(qosalloc.XC2V3000)
	if r.BRAMs != 2 || r.Mults != 2 {
		t.Errorf("synthesis = %+v", r)
	}
	if !strings.Contains(r.String(), "XC2V3000") {
		t.Error("report rendering broken")
	}
}

func TestFacadeSystemStack(t *testing.T) {
	cb, _, err := qosalloc.InfotainmentCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	repo := qosalloc.NewRepository(20)
	if err := repo.PopulateFromCaseBase(cb); err != nil {
		t.Fatal(err)
	}
	fpga := qosalloc.NewFPGADevice("fpga0", []qosalloc.FPGASlot{
		{Slices: 1500, BRAMs: 8, Multipliers: 16},
	}, 66)
	dsp := qosalloc.NewProcessorDevice("dsp0", qosalloc.TargetDSP, 1000, 192*1024)
	gpp := qosalloc.NewProcessorDevice("gpp0", qosalloc.TargetGPP, 1000, 512*1024)
	rt := qosalloc.NewRuntime(repo, fpga, dsp, gpp)
	m := qosalloc.NewAllocationManager(cb, rt, qosalloc.WithBypassTokens(true))

	apps := qosalloc.FigureOneApps()
	if len(apps) != 4 {
		t.Fatalf("apps = %d", len(apps))
	}
	d, err := m.Request(apps[0].Name, apps[0].Steps[0].Req, apps[0].Prio)
	if err != nil {
		t.Fatal(err)
	}
	if d.Device == "" || d.Similarity <= 0 {
		t.Errorf("decision = %+v", d)
	}
	if err := m.Release(d.Task.ID); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	cb, reg, err := qosalloc.GenCaseBase(qosalloc.PaperScaleSpec())
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := qosalloc.GenRequests(cb, reg, qosalloc.RequestStreamSpec{N: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 5 {
		t.Fatalf("requests = %d", len(reqs))
	}
}

func TestFacadeMeasureLookups(t *testing.T) {
	if _, err := qosalloc.LocalMeasureByName("at-least"); err != nil {
		t.Error(err)
	}
	if _, err := qosalloc.AmalgamationByName("minimum"); err != nil {
		t.Error(err)
	}
}

func TestFacadeExperiments(t *testing.T) {
	all := qosalloc.Experiments()
	if len(all) != 21 {
		t.Fatalf("experiments = %d, want 21", len(all))
	}
	e, ok := qosalloc.ExperimentByID("table1")
	if !ok {
		t.Fatal("table1 missing")
	}
	var buf bytes.Buffer
	if err := e.Run(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "best") {
		t.Error("table1 output lacks the best marker")
	}
}

func TestFacadeSWCostModels(t *testing.T) {
	cb, _ := qosalloc.PaperCaseBase()
	req := qosalloc.PaperRequest()
	base, err := qosalloc.NewSWRunner().Retrieve(cb, req)
	if err != nil {
		t.Fatal(err)
	}
	barrel, err := qosalloc.NewSWRunnerWithCosts(qosalloc.MicroBlazeCosts()).Retrieve(cb, req)
	if err != nil {
		t.Fatal(err)
	}
	if barrel.Cycles >= base.Cycles {
		t.Errorf("barrel shifter core (%d cyc) must beat the base core (%d cyc)",
			barrel.Cycles, base.Cycles)
	}
	if base.ImplID != barrel.ImplID {
		t.Error("cost model must not change results")
	}
}

func TestFacadeSessionAndMonitor(t *testing.T) {
	cb, err := qosalloc.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	repo := qosalloc.NewRepository(20)
	if err := repo.PopulateFromCaseBase(cb); err != nil {
		t.Fatal(err)
	}
	rt := qosalloc.NewRuntime(repo,
		qosalloc.NewProcessorDevice("dsp0", qosalloc.TargetDSP, 1000, 128<<10),
		qosalloc.NewProcessorDevice("gpp0", qosalloc.TargetGPP, 1000, 256<<10),
	)
	m := qosalloc.NewAllocationManager(cb, rt)
	mon := qosalloc.NewPlatformMonitor(rt, 8)

	sess := qosalloc.OpenSession(m, "mp3", 5, qosalloc.AppSessionOptions{
		RelaxOrder: []qosalloc.AttrID{4},
	})
	c, err := sess.Call(qosalloc.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	if c.Trail[len(c.Trail)-1].Outcome != qosalloc.OutcomePlaced {
		t.Errorf("trail = %+v", c.Trail)
	}
	st := mon.Sample()
	if st.TotalPowerMW == 0 {
		t.Error("monitor should see the placed task's power")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	after := qosalloc.PlatformSnapshot(rt)
	if after.TotalPowerMW != 0 {
		t.Errorf("power after close = %d", after.TotalPowerMW)
	}
}

// ExampleEngine_RetrieveN shows the §5 n-most-similar extension.
func ExampleEngine_RetrieveN() {
	cb, _ := qosalloc.PaperCaseBase()
	eng := qosalloc.NewRetrievalEngine(cb)
	top, _ := eng.RetrieveN(qosalloc.PaperRequest(), 2)
	for _, r := range top {
		fmt.Printf("%s S=%.2f\n", r.Name, r.Similarity)
	}
	// Output:
	// fir-eq-dsp S=0.96
	// fir-eq-fpga S=0.85
}

// ExampleWithLearning shows the fig. 2 revise step on a serving case
// base: observed QoS folds back in at the next commit.
func ExampleWithLearning() {
	cb, _ := qosalloc.PaperCaseBase()
	svc := qosalloc.NewService(cb, qosalloc.NewRuntime(qosalloc.NewRepository(20)),
		qosalloc.WithLearning(1, 0, 0))
	defer svc.Close()
	// The DSP equalizer is observed delivering only 20 kS/s.
	_ = svc.Observe(qosalloc.Observation{
		Type: 1, Impl: 2,
		Measured: []qosalloc.AttrPair{{ID: 4, Value: 20}},
	})
	_, _ = svc.CommitNow()
	best, _ := svc.Retrieve(context.Background(), qosalloc.PaperRequest())
	fmt.Println(svc.Journal()[0])
	fmt.Println(best.Name)
	// Output:
	// epoch=2 t=0 reason=manual changed=1 folded_obs=1
	// fir-eq-fpga
}

// ExampleRequest_Relax shows the §3 constraint-relaxation step.
func ExampleRequest_Relax() {
	req := qosalloc.PaperRequest()
	relaxed, ok := req.Relax(1) // drop the bitwidth constraint
	fmt.Println(ok, len(req.Constraints), len(relaxed.Constraints))
	// Output: true 3 2
}
