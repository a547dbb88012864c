package qosalloc_test

import (
	"errors"
	"testing"

	"qosalloc"
)

// fleetDevs builds one node's device set through the public facade.
func fleetDevs(name string) []qosalloc.Device {
	return []qosalloc.Device{
		qosalloc.NewFPGADevice(qosalloc.DeviceID(name+"-fpga"), []qosalloc.FPGASlot{
			{Slices: 1500, BRAMs: 8, Multipliers: 16},
			{Slices: 1500, BRAMs: 8, Multipliers: 16},
		}, 66),
		qosalloc.NewProcessorDevice(qosalloc.DeviceID(name+"-dsp"), qosalloc.TargetDSP, 1000, 128*1024),
		qosalloc.NewProcessorDevice(qosalloc.DeviceID(name+"-gpp"), qosalloc.TargetGPP, 1000, 256*1024),
	}
}

// TestFacadeFleet drives the multi-tenant quickstart end to end:
// topology and tenancy from options, a metered placement, a typed
// budget rejection, release, and the replay hash.
func TestFacadeFleet(t *testing.T) {
	cb, err := qosalloc.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	build := func(reg *qosalloc.ObsRegistry) *qosalloc.Fleet {
		fl, err := qosalloc.NewFleet(cb,
			qosalloc.WithFleetNode("node0", 20, fleetDevs("node0")...),
			qosalloc.WithFleetNode("node1", 20, fleetDevs("node1")...),
			qosalloc.WithClassBudget("bronze", qosalloc.ClassBudget{
				ConfigBytesPerSec: 1, ConfigBurstBytes: 18 * 1024,
			}),
			qosalloc.WithTenant("batch", "bronze"),
			qosalloc.WithRegistry(reg),
			qosalloc.WithThreshold(0.5))
		if err != nil {
			t.Fatal(err)
		}
		return fl
	}
	reg := qosalloc.NewObsRegistry()
	fl := build(reg)

	p, err := fl.Allocate("batch", "mp3", qosalloc.PaperRequest(), 5)
	if err != nil {
		t.Fatalf("metered allocate: %v", err)
	}
	// The fleet's engine is instrumented on the fleet's registry.
	if n, _ := reg.CounterValue("qos_retrieval_total"); n == 0 {
		t.Errorf("qos_retrieval_total = %d after an allocation, want > 0", n)
	}
	if p.Node != "node0" || p.Tenant != "batch" {
		t.Fatalf("placement %+v", p)
	}

	// The bronze bandwidth bucket is one DSP bitstream deep: the second
	// allocation is a typed budget rejection naming the resource.
	_, err = fl.Allocate("batch", "mp3", qosalloc.PaperRequest(), 5)
	var be *qosalloc.ErrBudgetExceeded
	if !errors.As(err, &be) || be.Resource != "config_bytes" {
		t.Fatalf("over-budget allocate: %v", err)
	}

	// An unbound tenant is unmetered and lands on the other best node.
	if _, err := fl.Allocate("free", "mp3b", qosalloc.PaperRequest(), 5); err != nil {
		t.Fatalf("unmetered allocate: %v", err)
	}
	if err := fl.Release(p.Node, p.Task); err != nil {
		t.Fatalf("release: %v", err)
	}

	// The same option list replays to the same journal hash.
	fl2 := build(qosalloc.NewObsRegistry())
	for _, tenant := range []string{"batch", "free"} {
		if _, err := fl2.Allocate(tenant, "app-"+tenant, qosalloc.PaperRequest(), 5); err != nil &&
			!errors.As(err, &be) {
			t.Fatalf("replay allocate(%s): %v", tenant, err)
		}
	}
	fl3 := build(qosalloc.NewObsRegistry())
	for _, tenant := range []string{"batch", "free"} {
		if _, err := fl3.Allocate(tenant, "app-"+tenant, qosalloc.PaperRequest(), 5); err != nil &&
			!errors.As(err, &be) {
			t.Fatalf("replay allocate(%s): %v", tenant, err)
		}
	}
	if fl2.ReplayHash() != fl3.ReplayHash() {
		t.Fatalf("replay hashes differ: %s vs %s", fl2.ReplayHash(), fl3.ReplayHash())
	}
}

func TestFacadeParseClassBudgets(t *testing.T) {
	m, err := qosalloc.ParseClassBudgets("gold=slices:2000;bronze=cfgbps:1024")
	if err != nil {
		t.Fatal(err)
	}
	if m["gold"].Slices != 2000 || m["bronze"].ConfigBytesPerSec != 1024 {
		t.Fatalf("parsed %+v", m)
	}
}
