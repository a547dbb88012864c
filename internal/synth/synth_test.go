package synth

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestTableTwoReproduction(t *testing.T) {
	// Table 2: 441 CLB slices (3 %), 2 MULT18X18 (2 %), 2 BRAM (2 %),
	// 75 MHz on the XC2V3000.
	n := RetrievalUnitNetlist(13)
	r := Estimate(n, XC2V3000, VirtexII())
	if math.Abs(float64(r.Slices-441)) > 441*0.05 {
		t.Errorf("slices = %d, want 441 ± 5%%", r.Slices)
	}
	if r.BRAMs != 2 || r.Mults != 2 {
		t.Errorf("BRAMs=%d Mults=%d, want 2/2", r.BRAMs, r.Mults)
	}
	if math.Abs(r.FmaxMHz-75) > 5 {
		t.Errorf("fmax = %.1f MHz, want 75 ± 5", r.FmaxMHz)
	}
	if math.Round(r.UtilSlices()) != 3 {
		t.Errorf("slice utilization = %.1f %%, want 3 %%", r.UtilSlices())
	}
	if math.Round(r.UtilBRAMs()) != 2 || math.Round(r.UtilMults()) != 2 {
		t.Errorf("BRAM/MULT utilization = %.1f/%.1f %%, want 2/2",
			r.UtilBRAMs(), r.UtilMults())
	}
}

func TestRawBelowScaled(t *testing.T) {
	// Hand-written RTL would be substantially smaller than the
	// generated flow: the raw structural estimate must sit well below
	// the overhead-scaled one.
	n := RetrievalUnitNetlist(13)
	r := Estimate(n, XC2V3000, VirtexII())
	if r.RawSlices >= r.Slices {
		t.Errorf("raw %d should be below scaled %d", r.RawSlices, r.Slices)
	}
	if r.RawSlices < 100 {
		t.Errorf("raw %d implausibly small for this datapath", r.RawSlices)
	}
}

func TestNetlistBreakdownConsistent(t *testing.T) {
	n := RetrievalUnitNetlist(13)
	ffs, luts := 0, 0
	for _, it := range n.Items {
		ffs += it.FFs
		luts += it.LUTs
	}
	if ffs != n.FlipFlops || luts != n.LUT4s {
		t.Errorf("breakdown (%d FF, %d LUT) != totals (%d, %d)",
			ffs, luts, n.FlipFlops, n.LUT4s)
	}
	if n.FSMStates != 24 {
		t.Errorf("FSM states = %d", n.FSMStates)
	}
}

func TestAddressWidthScalesArea(t *testing.T) {
	small := Estimate(RetrievalUnitNetlist(10), XC2V3000, VirtexII())
	large := Estimate(RetrievalUnitNetlist(16), XC2V3000, VirtexII())
	if large.Slices <= small.Slices {
		t.Errorf("wider pointers must cost area: %d vs %d", large.Slices, small.Slices)
	}
}

func TestDeviceFit(t *testing.T) {
	// The unit fits even the smallest listed part with room to spare.
	r := Estimate(RetrievalUnitNetlist(13), XC2V1000, VirtexII())
	if r.UtilSlices() > 20 {
		t.Errorf("utilization on XC2V1000 = %.1f %%, implausibly high", r.UtilSlices())
	}
}

func TestReportString(t *testing.T) {
	r := Estimate(RetrievalUnitNetlist(13), XC2V3000, VirtexII())
	s := r.String()
	for _, want := range []string{"XC2V3000", "CLB-Slices", "MULT18X18s", "BRAMS(18Kbit)", "Max. Clock"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestFmaxCriticalPathSwitch(t *testing.T) {
	// With a slow BRAM and instant multiplier the comparator path must
	// become critical.
	tech := VirtexII()
	tech.TMult = 0.1
	tech.TClkToOut = 8
	_, crit := fmaxEstimate(tech)
	if crit != "BRAM→compare→FSM" {
		t.Errorf("critical path = %s", crit)
	}
	tech2 := VirtexII()
	tech2.TMult = 20
	_, crit2 := fmaxEstimate(tech2)
	if crit2 != "MULT→saturate→acc" {
		t.Errorf("critical path = %s", crit2)
	}
}

// RetrievalUnitNetlistNBest extends the unit netlist with the §5 n-best register
// file: n (similarity, ID) pairs, a sequential comparator stage and the
// shift-register insert network. Area grows linearly in n — the
// quantitative answer to whether the extension stays cheap.
func RetrievalUnitNetlistNBest(addrBits, nBest int) Netlist {
	n := RetrievalUnitNetlist(addrBits)
	if nBest <= 1 {
		return n
	}
	n.Name = fmt.Sprintf("retrieval-unit-n%d", nBest)
	n.FSMStates += 2 // BestScan, BestShift
	n.add("n-best FSM states", 2, 4)
	n.add(fmt.Sprintf("n-best register file (%dx32b)", nBest), nBest*32, 0)
	// One shared comparator (the scan is sequential) plus per-entry
	// shift-enable and input muxes.
	n.add("n-best comparator + index", 8, 16)
	n.add("n-best shift/insert muxes", 0, nBest*16)
	return n
}

func TestNBestNetlistScalesLinearly(t *testing.T) {
	base := Estimate(RetrievalUnitNetlist(13), XC2V3000, VirtexII())
	n3 := Estimate(RetrievalUnitNetlistNBest(13, 3), XC2V3000, VirtexII())
	n8 := Estimate(RetrievalUnitNetlistNBest(13, 8), XC2V3000, VirtexII())
	if !(base.Slices < n3.Slices && n3.Slices < n8.Slices) {
		t.Errorf("area must grow with n: %d, %d, %d", base.Slices, n3.Slices, n8.Slices)
	}
	// The flip-flop register file dominates the cost: 3-best adds
	// roughly 40 %, 8-best roughly doubles the unit — a real finding
	// about the §5 extension (a BRAM-resident result list would be the
	// cheaper design for large n).
	if float64(n3.Slices) > 1.5*float64(base.Slices) {
		t.Errorf("3-best costs %d slices vs base %d", n3.Slices, base.Slices)
	}
	if float64(n8.Slices) > 2.2*float64(base.Slices) {
		t.Errorf("8-best costs %d slices vs base %d", n8.Slices, base.Slices)
	}
	// NBest ≤ 1 is the plain unit.
	n1 := RetrievalUnitNetlistNBest(13, 1)
	if n1.FlipFlops != RetrievalUnitNetlist(13).FlipFlops {
		t.Error("n=1 must not add hardware")
	}
	if n8.Netlist.FSMStates != 26 {
		t.Errorf("FSM states = %d, want 26", n8.Netlist.FSMStates)
	}
}
