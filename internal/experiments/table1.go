package experiments

import (
	"fmt"
	"io"

	"qosalloc/internal/casebase"
	"qosalloc/internal/retrieval"
)

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Retrieval similarity example (FIR equalizer)",
		Paper: "S = 0.85 (FPGA), 0.96 (DSP, best), 0.43 (GP-Proc)",
		Run:   Table1,
	})
}

// Table1Data computes the paper's Table 1: per-implementation local
// similarities and globals for the fig. 3 request.
func Table1Data() ([]retrieval.Result, error) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		return nil, err
	}
	e := retrieval.NewEngine(cb, retrieval.Options{})
	return e.RetrieveAll(casebase.PaperRequest())
}

// Table1 renders the reproduction of Table 1.
func Table1(w io.Writer) error {
	all, err := Table1Data()
	if err != nil {
		return err
	}
	cb, _ := casebase.PaperCaseBase()
	ft, _ := cb.Type(casebase.TypeFIREqualizer)
	for _, r := range all {
		im, _ := ft.Impl(r.Impl)
		fmt.Fprintf(w, "Impl ID=%d : %-8s  w=1/3\n", r.Impl, im.Target)
		fmt.Fprintf(w, "  %-3s %-6s %-6s %-6s %-6s %s\n", "i", "AReq", "ACB", "d", "dmax", "s_i")
		for _, l := range r.Locals {
			cbv := fmt.Sprintf("%d", l.Impl)
			if !l.Found {
				cbv = "-"
			}
			fmt.Fprintf(w, "  %-3d %-6d %-6s %-6d %-6d %.2f\n",
				l.ID, l.Req, cbv, absDiff(l.Req, l.Impl, l.Found), l.DMax, l.Sim)
		}
		marker := ""
		if r.Impl == all[0].Impl {
			marker = "   <-- best"
		}
		fmt.Fprintf(w, "  S_global = %.2f%s\n\n", r.Similarity, marker)
	}
	return nil
}

func absDiff(a, b uint16, found bool) int {
	if !found {
		return 0
	}
	if a > b {
		return int(a - b)
	}
	return int(b - a)
}
