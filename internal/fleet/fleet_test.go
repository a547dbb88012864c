package fleet

import (
	"errors"
	"fmt"
	"testing"

	"qosalloc/internal/admit"
	"qosalloc/internal/alloc"
	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/fault"
	"qosalloc/internal/obs"
	"qosalloc/internal/retrieval"
)

// newTestFleet builds n identical paper-style nodes (2-slot FPGA, DSP,
// GPP) over the table-1 case base.
func newTestFleet(t *testing.T, n int, opt Options) *Fleet {
	t.Helper()
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	f := New(retrieval.NewEngine(cb, retrieval.Options{}), opt)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node%d", i)
		fpga := device.NewFPGA(device.ID(name+"-fpga"), []device.Slot{
			{Slices: 1500, BRAMs: 8, Multipliers: 16},
			{Slices: 1500, BRAMs: 8, Multipliers: 16},
		}, 66)
		dsp := device.NewProcessor(device.ID(name+"-dsp"), casebase.TargetDSP, 1000, 128*1024)
		gpp := device.NewProcessor(device.ID(name+"-gpp"), casebase.TargetGPP, 1000, 256*1024)
		if _, err := f.AddNode(name, 20, fpga, dsp, gpp); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestFleetAllocateSpreadsDeterministically(t *testing.T) {
	f := newTestFleet(t, 2, Options{})
	// Equal nodes: the name tie-break sends the first placement to
	// node0; the second node then has more free capacity.
	p1, err := f.Allocate("tA", "mp3", casebase.PaperRequest(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Node != "node0" || p1.Impl != 2 || p1.Target != casebase.TargetDSP {
		t.Errorf("first placement = %+v, want DSP impl 2 on node0", p1)
	}
	p2, err := f.Allocate("tA", "mp3", casebase.PaperRequest(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Node != "node1" {
		t.Errorf("second placement on %s, want node1 (more free capacity)", p2.Node)
	}
	if st := f.Stats(); st.Requests != 2 || st.Placed != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFleetReleaseReturnsBudget(t *testing.T) {
	f := newTestFleet(t, 1, Options{})
	f.Ledger().DefineClass("bronze", admit.ClassBudget{Slices: 1000})
	f.Ledger().BindTenant("tA", "bronze")
	// Saturate the DSP so the FPGA variant (920 slices) is chosen.
	if _, err := f.Allocate("free", "mp3", casebase.PaperRequest(), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Allocate("free", "mp3", casebase.PaperRequest(), 5); err != nil {
		t.Fatal(err)
	}
	p, err := f.Allocate("tA", "mp3", casebase.PaperRequest(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Target != casebase.TargetFPGA {
		t.Fatalf("placement = %+v, want FPGA variant", p)
	}
	if s, _ := f.Ledger().Usage("tA"); s != 920 {
		t.Errorf("tenant holds %d slices, want 920", s)
	}
	// A second FPGA placement would exceed the 1000-slice budget; the
	// tenant gets the typed error and the GPP fallback is also checked
	// (it passes: zero slices), so saturate the GPPs first.
	if err := f.Release(p.Node, p.Task); err != nil {
		t.Fatal(err)
	}
	if s, _ := f.Ledger().Usage("tA"); s != 0 {
		t.Errorf("tenant still holds %d slices after release", s)
	}
}

func TestFleetBudgetTypedRejection(t *testing.T) {
	f := newTestFleet(t, 1, Options{})
	// Budget admits exactly one DSP-variant bitstream (18 KiB) and
	// nothing else: the FPGA (96 KiB) and GPP (2 KiB) fallbacks are
	// blocked by a drained bucket.
	f.Ledger().DefineClass("tight", admit.ClassBudget{ConfigBytesPerSec: 1, ConfigBurstBytes: 18 * 1024})
	f.Ledger().BindTenant("tA", "tight")
	if _, err := f.Allocate("tA", "mp3", casebase.PaperRequest(), 5); err != nil {
		t.Fatalf("first allocation within budget: %v", err)
	}
	_, err := f.Allocate("tA", "mp3", casebase.PaperRequest(), 5)
	var be *admit.ErrBudgetExceeded
	if !errors.As(err, &be) {
		t.Fatalf("second allocation = %v, want *admit.ErrBudgetExceeded", err)
	}
	if be.Resource != admit.ResourceConfigBytes || be.Tenant != "tA" {
		t.Errorf("rejection = %+v", be)
	}
	if st := f.Stats(); st.BudgetRejected != 1 {
		t.Errorf("stats = %+v, want BudgetRejected 1", st)
	}
}

func TestFleetInfeasibleKeepsAllocSentinel(t *testing.T) {
	f := newTestFleet(t, 1, Options{})
	// Fill the DSP (2×450 load), both FPGA slots, and the GPP (700).
	for i := 0; i < 5; i++ {
		if _, err := f.Allocate("tA", "mp3", casebase.PaperRequest(), 5); err != nil {
			t.Fatalf("fill allocation %d: %v", i, err)
		}
	}
	_, err := f.Allocate("tA", "mp3", casebase.PaperRequest(), 5)
	if err == nil {
		t.Fatal("overfull fleet still placed")
	}
	if !errors.Is(err, alloc.ErrNoViableVariant) {
		t.Errorf("err = %v, want wrapping alloc.ErrNoViableVariant", err)
	}
}

func TestFleetRecoveryMigratesAcrossNodes(t *testing.T) {
	f := newTestFleet(t, 2, Options{})
	p, err := f.Allocate("tA", "mp3", casebase.PaperRequest(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Node != "node0" {
		t.Fatalf("placement on %s, want node0", p.Node)
	}
	if err := f.AdvanceTo(1000); err != nil {
		t.Fatal(err)
	}
	// Kill every node0 device: same-node recovery is impossible.
	plan, err := fault.ParsePlan("2000:devfail:node0-dsp;2000:devfail:node0-fpga;2000:devfail:node0-gpp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.InjectFaults("node0", plan); err != nil {
		t.Fatal(err)
	}
	if err := f.AdvanceTo(3000); err != nil {
		t.Fatal(err)
	}
	recs := f.RecoverAll()
	if len(recs) != 1 {
		t.Fatalf("recoveries = %d, want 1", len(recs))
	}
	r := recs[0]
	if r.Placement == nil || !r.Migrated || r.Placement.Node != "node1" {
		t.Fatalf("recovery = %+v, want migration to node1", r)
	}
	if st := f.Stats(); st.Recovered != 1 || st.Migrated != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// pinnedReplayHashes are the journal hashes of the replay schedule
// below by power weight and node count. The schedule is the only fleet
// test that ranks by power. At weight 0.1 the power discount leaves the
// paper request's candidate order as it is; at weight 10 it reorders
// the candidates, so that row is what catches a change in the
// power-ranked order. Regenerate after an intentional policy change
// from the failure message of TestFleetReplayBitIdentical.
var pinnedReplayHashes = []struct {
	weight float64
	nodes  int
	hash   string
}{
	{0.1, 1, "fnv64a:fccbe6110342b609"},
	{0.1, 2, "fnv64a:4dfa26c266076766"},
	{0.1, 4, "fnv64a:eefd15f3736f7fa2"},
	{10, 1, "fnv64a:be9d8bb99e989ba8"},
	{10, 2, "fnv64a:0f1a4a25172c650b"},
	{10, 4, "fnv64a:54a3a55ab68ff680"},
}

// TestFleetReplayBitIdentical pins the acceptance criterion: the same
// schedule produces the same journal hash on every run, at any node
// count, and that hash is the pinned one.
func TestFleetReplayBitIdentical(t *testing.T) {
	run := func(nodes int, weight float64) string {
		f := newTestFleet(t, nodes, Options{PowerWeight: weight})
		f.Ledger().DefineClass("std", admit.ClassBudget{Slices: 3000, ConfigBytesPerSec: 64 * 1024})
		for i := 0; i < 4; i++ {
			f.Ledger().BindTenant(fmt.Sprintf("t%d", i), "std")
		}
		var placed []Placement
		for i := 0; i < 12; i++ {
			tenant := fmt.Sprintf("t%d", i%4)
			p, err := f.Allocate(tenant, "mp3", casebase.PaperRequest(), 3+i%5)
			if err == nil {
				placed = append(placed, *p)
			}
			if err := f.AdvanceTo(device.Micros(i+1) * 700); err != nil {
				t.Fatal(err)
			}
			if i == 6 && len(placed) > 0 {
				if err := f.Release(placed[0].Node, placed[0].Task); err != nil {
					t.Fatal(err)
				}
			}
		}
		f.Rebalance()
		return f.ReplayHash()
	}
	for _, pin := range pinnedReplayHashes {
		a, b := run(pin.nodes, pin.weight), run(pin.nodes, pin.weight)
		if a != b {
			t.Errorf("weight %v, %d-node replay diverged: %s vs %s", pin.weight, pin.nodes, a, b)
		}
		if a != pin.hash {
			t.Errorf("weight %v, %d-node replay hash = %s, want %s", pin.weight, pin.nodes, a, pin.hash)
		}
	}
}

// noisyScenario is the fleetcheck isolation scenario: tenant "victim"
// holds work on node0 when a device failure degrades it; tenant
// "noisy" then floods the fleet at roughly 10× its class budget. The
// victim's recovery must not see the neighbor at all.
func noisyScenario(t *testing.T, withNoisy bool) (victimRecoveries []string, budgetRejects int, fleetHash string) {
	t.Helper()
	f := newTestFleet(t, 2, Options{})
	reg := obs.NewRegistry()
	f.Instrument(reg)
	led := f.Ledger()
	led.DefineClass("gold", admit.ClassBudget{})
	led.DefineClass("bronze", admit.ClassBudget{Slices: 920, ConfigBytesPerSec: 1, ConfigBurstBytes: 36 * 1024})
	led.BindTenant("victim", "gold")
	led.BindTenant("noisy", "bronze")

	// The victim spreads four MP3 tasks across the fleet; two land on
	// node0 (the name tie-break, then alternating free capacity).
	var victims []Placement
	for i := 0; i < 4; i++ {
		p, err := f.Allocate("victim", "mp3", casebase.PaperRequest(), 5)
		if err != nil {
			t.Fatal(err)
		}
		victims = append(victims, *p)
	}
	if victims[0].Node != "node0" || victims[2].Node != "node0" {
		t.Fatalf("victim placements landed %s/%s, want node0 twice", victims[0].Node, victims[2].Node)
	}
	if err := f.AdvanceTo(2000); err != nil {
		t.Fatal(err)
	}

	// Storm scoped to node0: its DSP dies, stranding the victim's two
	// DSP placements there. node1 never sees a fault.
	storm, err := fault.ParsePlan("5000:devfail:node0-dsp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.InjectFaults("node0", storm.ForDevices("node0-dsp")); err != nil {
		t.Fatal(err)
	}
	if err := f.AdvanceTo(6000); err != nil {
		t.Fatal(err)
	}

	// The noisy neighbor floods the degraded fleet: 20 requests against
	// a budget that admits roughly 2 bitstreams' worth of bandwidth.
	if withNoisy {
		for i := 0; i < 20; i++ {
			_, err := f.Allocate("noisy", "mp3", casebase.PaperRequest(), 9)
			var be *admit.ErrBudgetExceeded
			if errors.As(err, &be) {
				budgetRejects++
			} else if err != nil && !errors.Is(err, alloc.ErrNoViableVariant) {
				t.Fatalf("noisy request %d: unexpected error %v", i, err)
			}
		}
	}

	// Recovery: the stranded victim tasks re-place onto node0's FPGA
	// (same-node first; the DSP target class is dead there).
	for _, r := range f.RecoverAll() {
		if r.Tenant != "victim" {
			continue
		}
		out := fmt.Sprintf("task=%d node=%s degraded=%v rejected=%v",
			r.Task, placementNode(r), r.Degraded, r.Placement == nil)
		if r.Placement != nil {
			out += fmt.Sprintf(" impl=%d dev=%s ready=%d", r.Placement.Impl, r.Placement.Device, r.Placement.ReadyAt)
		}
		victimRecoveries = append(victimRecoveries, out)
	}
	return victimRecoveries, budgetRejects, f.ReplayHash()
}

func placementNode(r Recovery) string {
	if r.Placement == nil {
		return "-"
	}
	return r.Placement.Node
}

// TestFleetNoisyNeighborIsolation pins the tentpole acceptance
// criterion: under a single-node fault storm, a tenant at ~10× budget
// is throttled with typed errors while the degraded tenant's recovery
// outcome is unchanged against the no-neighbor baseline.
func TestFleetNoisyNeighborIsolation(t *testing.T) {
	baseRecs, _, _ := noisyScenario(t, false)
	noisyRecs, rejects, _ := noisyScenario(t, true)
	if len(baseRecs) == 0 {
		t.Fatal("baseline produced no victim recoveries; scenario is vacuous")
	}
	if rejects < 10 {
		t.Errorf("noisy tenant saw %d typed budget rejections, want >= 10", rejects)
	}
	if len(baseRecs) != len(noisyRecs) {
		t.Fatalf("recovery count changed: baseline %d, with neighbor %d\nbase: %v\nnoisy: %v",
			len(baseRecs), len(noisyRecs), baseRecs, noisyRecs)
	}
	for i := range baseRecs {
		if baseRecs[i] != noisyRecs[i] {
			t.Errorf("recovery %d diverged under noisy neighbor:\nbaseline: %s\nneighbor: %s",
				i, baseRecs[i], noisyRecs[i])
		}
	}
}

// pinnedNoisyHash is the fleetcheck golden: the full journal hash of
// the seeded noisy-neighbor scenario. Any change to fleet placement,
// budget, or recovery order shows up here first. Regenerate by running
// this test with -run TestFleetCheckGolden -v after an intentional
// policy change and copying the reported hash.
const pinnedNoisyHash = "fnv64a:aa284eabb6018b98"

func TestFleetCheckGolden(t *testing.T) {
	_, _, hash := noisyScenario(t, true)
	if hash != pinnedNoisyHash {
		t.Errorf("noisy-neighbor scenario hash = %s, want %s", hash, pinnedNoisyHash)
	}
}
