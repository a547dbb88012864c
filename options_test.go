package qosalloc_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"qosalloc"
)

// fig1Runtime builds the fig. 1 platform through the public facade.
func fig1Runtime(t *testing.T, cb *qosalloc.CaseBase) *qosalloc.Runtime {
	t.Helper()
	repo := qosalloc.NewRepository(20)
	if err := repo.PopulateFromCaseBase(cb); err != nil {
		t.Fatal(err)
	}
	fpga := qosalloc.NewFPGADevice("fpga0", []qosalloc.FPGASlot{
		{Slices: 1500, BRAMs: 8, Multipliers: 16},
		{Slices: 1500, BRAMs: 8, Multipliers: 16},
	}, 66)
	dsp := qosalloc.NewProcessorDevice("dsp0", qosalloc.TargetDSP, 1000, 128*1024)
	gpp := qosalloc.NewProcessorDevice("gpp0", qosalloc.TargetGPP, 1000, 256*1024)
	return qosalloc.NewRuntime(repo, fpga, dsp, gpp)
}

// TestFacadeServiceV2 drives the v2 quickstart end to end: options,
// context-threaded calls, batch allocation, instrumentation.
func TestFacadeServiceV2(t *testing.T) {
	cb, err := qosalloc.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	reg := qosalloc.NewObsRegistry()
	svc := qosalloc.NewService(cb, fig1Runtime(t, cb),
		qosalloc.WithShards(2),
		qosalloc.WithMaxBatch(8),
		qosalloc.WithThreshold(0.5),
		qosalloc.WithPreemption(true),
		qosalloc.WithRegistry(reg),
	)
	defer svc.Close()

	ctx := context.Background()
	best, err := svc.Retrieve(ctx, qosalloc.PaperRequest())
	if err != nil || best.Impl != 2 {
		t.Fatalf("Retrieve = %+v, %v", best, err)
	}
	d, err := svc.Allocate(ctx, "mp3", qosalloc.PaperRequest(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Target != qosalloc.TargetDSP || d.Device != "dsp0" {
		t.Errorf("decision = %+v", d)
	}
	out, err := svc.AllocateBatch(ctx, "batch", []qosalloc.Request{qosalloc.PaperRequest()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Err != nil || out[0].Decision == nil {
		t.Fatalf("batch = %+v", out)
	}
	if st := svc.Stats(); st.Allocated != 2 || st.Batches == 0 {
		t.Errorf("stats = %+v", st)
	}
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "qos_serve_batches_total") {
		t.Error("registry missing serve series after WithRegistry")
	}

	// Cancellation is first-class on every v2 call.
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := svc.Retrieve(dead, qosalloc.PaperRequest()); !errors.Is(err, qosalloc.ErrCanceled) {
		t.Errorf("canceled Retrieve = %v", err)
	}

	svc.Close()
	if _, err := svc.Retrieve(ctx, qosalloc.PaperRequest()); !errors.Is(err, qosalloc.ErrServiceClosed) {
		t.Errorf("closed Retrieve = %v", err)
	}
}

// TestFacadeServiceOverloadTyped checks the typed shed error crosses the
// facade intact.
func TestFacadeServiceOverloadTyped(t *testing.T) {
	var ov *qosalloc.ErrOverload
	err := error(&qosalloc.ErrOverload{Shard: 1, QueueLen: 3, RetryAfter: 40})
	if !errors.As(err, &ov) || ov.RetryAfter != 40 {
		t.Fatalf("ErrOverload round trip = %+v", ov)
	}
}

// TestFacadeV2Constructors covers the per-layer entry points.
func TestFacadeV2Constructors(t *testing.T) {
	cb, err := qosalloc.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	reg := qosalloc.NewObsRegistry()

	eng := qosalloc.NewRetrievalEngine(cb, qosalloc.WithThreshold(0.9), qosalloc.WithRegistry(reg))
	best, err := eng.Retrieve(qosalloc.PaperRequest())
	if err != nil || best.Impl != 2 {
		t.Fatalf("engine = %+v, %v", best, err)
	}
	if v, ok := reg.CounterValue("qos_retrieval_total"); !ok || v != 1 {
		t.Errorf("engine not instrumented: %d, %v", v, ok)
	}

	mgr := qosalloc.NewAllocationManager(cb, fig1Runtime(t, cb),
		qosalloc.WithNBest(2), qosalloc.WithBypassTokens(true))
	d, err := mgr.Request("mp3", qosalloc.PaperRequest(), 5)
	if err != nil || d.Target != qosalloc.TargetDSP {
		t.Fatalf("manager = %+v, %v", d, err)
	}
}

// TestFacadeManagerRanksByAmalgamation pins that NewAllocationManager
// ranks with the options' measures. Under the maximum amalgamation the
// paper request's FPGA and DSP variants tie at S = 1 and the tie goes to
// the lower implementation ID, FPGA impl 1; eq. (2) would pick DSP impl
// 2 at 0.96.
func TestFacadeManagerRanksByAmalgamation(t *testing.T) {
	cb, err := qosalloc.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	am, err := qosalloc.AmalgamationByName("maximum")
	if err != nil {
		t.Fatal(err)
	}
	req := qosalloc.PaperRequest()
	want, err := qosalloc.NewRetrievalEngine(cb, qosalloc.WithAmalgamation(am)).Retrieve(req)
	if err != nil {
		t.Fatal(err)
	}
	mgr := qosalloc.NewAllocationManager(cb, fig1Runtime(t, cb), qosalloc.WithAmalgamation(am))
	d, err := mgr.Request("mp3", req, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want.Impl != 1 || d.Impl != want.Impl || d.Similarity != want.Similarity {
		t.Errorf("manager placed impl %d at S = %v; the maximum amalgamation ranks impl %d first at %v",
			d.Impl, d.Similarity, want.Impl, want.Similarity)
	}
}
