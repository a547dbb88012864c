// Quickstart: declare an attribute vocabulary, build a small case base,
// and retrieve the implementation variant that best matches a QoS
// request — the minimal end-to-end use of the public API.
package main

import (
	"fmt"
	"log"

	"qosalloc"
)

func main() {
	// 1. Design time: declare the attribute types with their global
	// bounds. The bounds fix each attribute's dmax in eq. (1).
	reg := qosalloc.NewRegistry()
	reg.MustDefine(qosalloc.AttrDef{ID: 1, Name: "bitwidth", Unit: "bits",
		Kind: qosalloc.Numeric, Lo: 8, Hi: 32})
	reg.MustDefine(qosalloc.AttrDef{ID: 2, Name: "throughput", Unit: "Mbit/s",
		Kind: qosalloc.Numeric, Lo: 1, Hi: 100})
	reg.MustDefine(qosalloc.AttrDef{ID: 3, Name: "mode",
		Kind: qosalloc.Ordinal, Lo: 0, Hi: 2, Symbols: []string{"eco", "normal", "turbo"}})

	// 2. Design time: the implementation tree — one function type, three
	// variants on different execution targets.
	b := qosalloc.NewCaseBaseBuilder(reg)
	b.AddType(1, "AES cipher")
	b.AddImpl(1, qosalloc.Implementation{
		ID: 1, Name: "aes-fpga", Target: qosalloc.TargetFPGA,
		Attrs: []qosalloc.AttrPair{{ID: 1, Value: 32}, {ID: 2, Value: 100}, {ID: 3, Value: 2}},
		Foot:  qosalloc.Footprint{Slices: 700, ConfigBytes: 48 * 1024, PowerMW: 280},
	})
	b.AddImpl(1, qosalloc.Implementation{
		ID: 2, Name: "aes-dsp", Target: qosalloc.TargetDSP,
		Attrs: []qosalloc.AttrPair{{ID: 1, Value: 32}, {ID: 2, Value: 40}, {ID: 3, Value: 1}},
		Foot:  qosalloc.Footprint{CPULoad: 400, MemBytes: 16 << 10, PowerMW: 190},
	})
	b.AddImpl(1, qosalloc.Implementation{
		ID: 3, Name: "aes-gpp", Target: qosalloc.TargetGPP,
		Attrs: []qosalloc.AttrPair{{ID: 1, Value: 16}, {ID: 2, Value: 8}, {ID: 3, Value: 0}},
		Foot:  qosalloc.Footprint{CPULoad: 650, MemBytes: 8 << 10, PowerMW: 120},
	})
	cb, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// 3. Run time: an application asks for the function under QoS
	// constraints; the weights stress throughput most.
	req := qosalloc.NewRequest(1,
		qosalloc.Constraint{ID: 1, Value: 32, Weight: 0.2},
		qosalloc.Constraint{ID: 2, Value: 60, Weight: 0.6},
		qosalloc.Constraint{ID: 3, Value: 1, Weight: 0.2},
	).NormalizeWeights()

	eng := qosalloc.NewRetrievalEngine(cb)
	ranked, err := eng.RetrieveN(req, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ranked variants for {32 bit, 60 Mbit/s, normal mode}:")
	for i, r := range ranked {
		fmt.Printf("  #%d %-9s (%s)  S = %.3f\n", i+1, r.Name, r.Target, r.Similarity)
	}

	// 4. The same request through the bit-exact 16-bit engine — the
	// arithmetic the paper's FPGA unit implements.
	fe, err := qosalloc.NewFixedEngine(cb)
	if err != nil {
		log.Fatal(err)
	}
	fx, err := fe.Retrieve(req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfixed-point engine agrees: impl %d, S = %.3f (Q15 = %d)\n",
		fx.Impl, fx.Float(), fx.Similarity)
}
