// Audioeq walks through the paper's §3 application example end to end:
// the FIR-equalizer request of fig. 3 scored against the three-variant
// case base on all four implementations of the retrieval algorithm —
// float64 reference, 16-bit fixed point, the cycle-accurate hardware
// unit, and the MicroBlaze-class software baseline — reproducing the
// Table 1 numbers and the §4.2 speed comparison on the way.
package main

import (
	"fmt"
	"log"

	"qosalloc"
)

func main() {
	cb, err := qosalloc.PaperCaseBase()
	if err != nil {
		log.Fatal(err)
	}
	req := qosalloc.PaperRequest()
	fmt.Println("request: FIR equalizer, {bitwidth=16, output=stereo, 40 kS/s}, w=1/3 each")

	// Table 1: the float64 reference with the per-attribute breakdown.
	eng := qosalloc.NewRetrievalEngine(cb)
	all, err := eng.RetrieveAll(req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nTable 1 reproduction (float64 reference):")
	for _, r := range all {
		fmt.Printf("  impl %d %-12s S = %.2f\n", r.Impl, "("+r.Target.String()+")", r.Similarity)
		for _, l := range r.Locals {
			fmt.Printf("      attr %d: s_i = %.2f\n", l.ID, l.Sim)
		}
	}

	// The three fixed-point implementations must agree bit-exactly.
	fe, err := qosalloc.NewFixedEngine(cb)
	if err != nil {
		log.Fatal(err)
	}
	fx, err := fe.Retrieve(req)
	if err != nil {
		log.Fatal(err)
	}
	hw, err := qosalloc.HWRetrieve(cb, req, qosalloc.HWConfig{})
	if err != nil {
		log.Fatal(err)
	}
	sw, err := qosalloc.NewSWRunner().Retrieve(cb, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfixed engine: impl %d, Q15 %d\n", fx.Impl, fx.Similarity)
	fmt.Printf("hardware:     impl %d, Q15 %d, %d cycles\n", hw.ImplID, hw.Sim, hw.Cycles)
	fmt.Printf("software:     impl %d, Q15 %d, %d cycles\n", sw.ImplID, sw.Sim, sw.Cycles)
	fmt.Printf("speedup at equal clock: %.2fx (paper: ~8.5x vs compiled C)\n",
		float64(sw.Cycles)/float64(hw.Cycles))

	// §3 negotiation: a 0.5 threshold rejects the GP-Proc variant;
	// relaxing the bitwidth constraint readmits it.
	strict := qosalloc.NewRetrievalEngine(cb, qosalloc.WithThreshold(0.5))
	n, err := strict.RetrieveN(req, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nthreshold 0.5 admits %d of 3 variants\n", len(n))
	relaxed, _ := req.Relax(1) // drop the bitwidth constraint
	n2, err := strict.RetrieveN(relaxed, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after relaxing bitwidth: %d of 3 variants qualify\n", len(n2))

	// §5 block-compact fetch: same result, roughly half the cycles.
	cmp, err := qosalloc.HWRetrieve(cb, req, qosalloc.HWConfig{Compact: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncompact fetch: %d -> %d cycles (%.2fx), same result: %v\n",
		hw.Cycles, cmp.Cycles, float64(hw.Cycles)/float64(cmp.Cycles),
		cmp.ImplID == hw.ImplID && cmp.Sim == hw.Sim)
}
