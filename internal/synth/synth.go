// Package synth estimates FPGA resource consumption and clock rate for
// the retrieval unit, reproducing the role of the Xilinx ISE 6.2
// synthesis run behind Table 2 of the paper.
//
// The model is structural: a Netlist enumerates the datapath and control
// primitives of the design (registers, adders, comparators, multiplexers,
// the FSM, dedicated multipliers, BRAMs), and a Technology maps them to
// CLB slices using Virtex-II cell geometry (one slice = two 4-input LUTs
// + two flip-flops). Because the paper's VHDL was machine-generated from
// a Matlab Stateflow model by the JVHDLgen beta tool — a flow that
// produces markedly less compact logic than hand-written RTL — the
// technology carries a documented ToolOverhead factor calibrated to that
// flow. The structural estimate without the factor is also reported, so
// the gap between generated and hand-optimized logic (a real
// design-space signal) stays visible.
package synth

import (
	"fmt"
	"math"
	"strings"
)

// Netlist is a technology-independent inventory of synchronous-design
// primitives.
type Netlist struct {
	Name string
	// FlipFlops is the total architectural register bit count.
	FlipFlops int
	// LUT4s is the estimated 4-input LUT count of the combinational
	// logic (adders, comparators, muxes, FSM next-state logic).
	LUT4s int
	// FSMStates is the state count (one-hot encoded FFs are included
	// in FlipFlops by the builder; kept for reporting).
	FSMStates int
	// BRAMs is the number of 18 Kbit block RAMs.
	BRAMs int
	// Mult18x18s is the number of dedicated multipliers.
	Mult18x18s int
	// Items is a human-readable breakdown for reports.
	Items []NetlistItem
}

// NetlistItem is one breakdown row.
type NetlistItem struct {
	What string
	FFs  int
	LUTs int
}

// add accumulates an item into the netlist totals.
func (n *Netlist) add(what string, ffs, luts int) {
	n.FlipFlops += ffs
	n.LUT4s += luts
	n.Items = append(n.Items, NetlistItem{What: what, FFs: ffs, LUTs: luts})
}

// Device is an FPGA part with its resource totals.
type Device struct {
	Name   string
	Slices int
	BRAMs  int
	Mults  int
}

// Virtex-II parts relevant to the paper's platform (XC2V3000 is the
// device of Table 2).
var (
	XC2V1000 = Device{Name: "XC2V1000", Slices: 5120, BRAMs: 40, Mults: 40}
	XC2V3000 = Device{Name: "XC2V3000", Slices: 14336, BRAMs: 96, Mults: 96}
	XC2V6000 = Device{Name: "XC2V6000", Slices: 33792, BRAMs: 144, Mults: 144}
)

// Technology holds the mapping coefficients.
type Technology struct {
	// LUTsPerSlice and FFsPerSlice describe slice geometry.
	LUTsPerSlice, FFsPerSlice float64
	// Packing is the achievable slice packing efficiency (<1).
	Packing float64
	// ToolOverhead scales the structural estimate to account for the
	// Stateflow→JVHDLgen→ISE generated-code flow of the paper.
	ToolOverhead float64

	// Timing coefficients, nanoseconds.
	TClkToOut  float64 // BRAM / register clock-to-out
	TLUT       float64 // one LUT level
	TCarryBit  float64 // carry chain, per bit
	TMult      float64 // MULT18X18 clock-to-out
	TRouteFrac float64 // routing share of logic delay (fraction)
	TSetup     float64 // FF setup
}

// VirtexII returns the technology calibrated to the paper's flow: slice
// geometry from the Virtex-II data sheet, packing and overhead fitted to
// the Table 2 result for the retrieval unit.
func VirtexII() Technology {
	return Technology{
		LUTsPerSlice: 2, FFsPerSlice: 2,
		Packing:      0.80,
		ToolOverhead: 2.80,
		TClkToOut:    2.6,
		TLUT:         0.44,
		TCarryBit:    0.055,
		TMult:        4.1,
		TRouteFrac:   1.2,
		TSetup:       0.6,
	}
}

// Report is the Table 2 style synthesis result.
type Report struct {
	Netlist   Netlist
	Device    Device
	Slices    int // with tool overhead (the Table 2 figure)
	RawSlices int // structural estimate, hand-written-RTL quality
	BRAMs     int
	Mults     int
	FmaxMHz   float64 // maximum clock from the critical-path model
	CritPath  string  // name of the limiting path
}

// UtilSlices returns slice utilization in percent.
func (r Report) UtilSlices() float64 { return 100 * float64(r.Slices) / float64(r.Device.Slices) }

// UtilBRAMs returns BRAM utilization in percent.
func (r Report) UtilBRAMs() float64 { return 100 * float64(r.BRAMs) / float64(r.Device.BRAMs) }

// UtilMults returns multiplier utilization in percent.
func (r Report) UtilMults() float64 { return 100 * float64(r.Mults) / float64(r.Device.Mults) }

// String renders the report in the shape of Table 2.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Resources: Xilinx %s\n", r.Device.Name)
	fmt.Fprintf(&b, "  CLB-Slices:      %4d of %5d | %2.0f %%\n", r.Slices, r.Device.Slices, r.UtilSlices())
	fmt.Fprintf(&b, "  MULT18X18s:      %4d of %5d | %2.0f %%\n", r.Mults, r.Device.Mults, r.UtilMults())
	fmt.Fprintf(&b, "  BRAMS(18Kbit):   %4d of %5d | %2.0f %%\n", r.BRAMs, r.Device.BRAMs, r.UtilBRAMs())
	fmt.Fprintf(&b, "  Max. Clock:      %.0f MHz  (critical path: %s)\n", r.FmaxMHz, r.CritPath)
	return b.String()
}

// Estimate maps a netlist onto a device with the given technology.
func Estimate(n Netlist, d Device, t Technology) Report {
	lutSlices := float64(n.LUT4s) / (t.LUTsPerSlice * t.Packing)
	ffSlices := float64(n.FlipFlops) / (t.FFsPerSlice * t.Packing)
	raw := int(math.Ceil(math.Max(lutSlices, ffSlices)))
	scaled := int(math.Ceil(float64(raw) * t.ToolOverhead))

	fmax, crit := fmaxEstimate(t)
	return Report{
		Netlist: n, Device: d,
		Slices: scaled, RawSlices: raw,
		BRAMs: n.BRAMs, Mults: n.Mult18x18s,
		FmaxMHz: fmax, CritPath: crit,
	}
}

// fmaxEstimate evaluates the two candidate critical paths of the
// retrieval unit and returns the limiting clock rate.
func fmaxEstimate(t Technology) (float64, string) {
	// Path 1: BRAM → 16-bit ID comparator (carry chain) → FSM
	// next-state LUT level → mux → register.
	cmp := t.TClkToOut + 2*t.TLUT + 16*t.TCarryBit + t.TLUT + t.TSetup
	cmp *= 1 + t.TRouteFrac
	// Path 2: MULT18X18 product → saturating subtract/add (16-bit
	// carry) → accumulator register.
	mult := t.TMult + t.TLUT + 16*t.TCarryBit + t.TSetup
	mult *= 1 + t.TRouteFrac
	worst, name := cmp, "BRAM→compare→FSM"
	if mult > worst {
		worst, name = mult, "MULT→saturate→acc"
	}
	return 1000 / worst, name
}

// RetrievalUnitNetlist builds the primitive inventory of the fig. 6/7
// retrieval unit as implemented in package hwsim. addrBits sizes the
// memory pointers (13 bits covers the 8K-word BRAM pair of the paper's
// configuration).
func RetrievalUnitNetlist(addrBits int) Netlist {
	n := Netlist{Name: "retrieval-unit", FSMStates: 24, BRAMs: 2, Mult18x18s: 2}

	// Control: one-hot FSM — one FF per state, next-state decode and
	// output decode at roughly two LUTs per transition-rich state.
	n.add("FSM (24 states, one-hot)", 24, 48)

	// Memory pointers tp/ip/ap/cp/sp/rp with a shared incrementer and
	// per-pointer source multiplexers.
	n.add("address registers (6×)", 6*addrBits, 0)
	n.add("address incrementer + muxes", 0, addrBits+6*addrBits/2)

	// Data-side registers of fig. 7.
	n.add("reqType/implID/attrID regs", 3*16, 0)
	n.add("reqVal/weight/recip regs", 3*16, 0)
	n.add("acc/best/bestID regs", 3*16, 0)
	n.add("done/flags", 4, 0)

	// Arithmetic of eq. (1)/(2): ABS (subtract + conditional negate),
	// 1-x saturating subtract, accumulator saturating add, best-match
	// comparator, end-marker and ID comparators.
	n.add("ABS(X) 16-bit", 0, 16+16)
	n.add("1-x saturating subtract", 0, 16+8)
	n.add("accumulator saturating add", 0, 16+8)
	n.add("S > Sbest comparator", 0, 8)
	n.add("ID comparators (req/CB/supp)", 0, 3*8)
	n.add("end-marker zero detects", 0, 3*4)

	// Product alignment shifts are wiring; saturation detects cost a
	// few LUTs.
	n.add("product saturation detects", 0, 2*6)
	return n
}
