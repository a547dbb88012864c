package experiments

import (
	"errors"
	"fmt"
	"io"

	"qosalloc/internal/casebase"
	"qosalloc/internal/hwsim"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/swret"
)

func init() {
	register(Experiment{
		ID:    "negotiate",
		Title: "Threshold rejection and relaxed-constraint re-request",
		Paper: "§3: reject below threshold; re-request with relaxed constraints admits the low-performance variant",
		Run:   Negotiate,
	})
	register(Experiment{
		ID:    "nbest",
		Title: "n-most-similar retrieval (§5 outlook)",
		Paper: "\"extension for getting n most similar solutions ... checking the feasibility of different matching variants\"",
		Run:   NBest,
	})
}

// Negotiate demonstrates the §3 negotiation loop on the paper case base.
func Negotiate(w io.Writer) error {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		return err
	}
	e := retrieval.NewEngine(cb, retrieval.Options{Threshold: 0.5})
	req := casebase.PaperRequest()

	all, err := e.RetrieveAll(req)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "threshold 0.50, request {bitwidth=16, stereo, 40 kS/s}:\n")
	for _, r := range all {
		verdict := "accepted"
		if r.Similarity < 0.5 {
			verdict = "REJECTED (below threshold)"
		}
		fmt.Fprintf(w, "  impl %d (%s): S = %.2f  %s\n", r.Impl, r.Target, r.Similarity, verdict)
	}

	// Strict threshold: nothing qualifies; the application must relax.
	strict := retrieval.NewEngine(cb, retrieval.Options{Threshold: 0.99})
	_, err = strict.Retrieve(req)
	var nm *retrieval.ErrNoMatch
	if !errors.As(err, &nm) {
		return fmt.Errorf("negotiate: expected ErrNoMatch at threshold 0.99, got %w", err)
	}
	fmt.Fprintf(w, "\nthreshold 0.99: no match (best %.2f) -> application relaxes\n", nm.Best)

	relaxed, _ := req.Relax(casebase.AttrBitwidth)
	all2, err := e.RetrieveAll(relaxed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "relaxed request (bitwidth constraint dropped):\n")
	for _, r := range all2 {
		fmt.Fprintf(w, "  impl %d (%s): S = %.2f\n", r.Impl, r.Target, r.Similarity)
	}
	fmt.Fprintf(w, "the low-performance GP-Proc variant now clears the 0.50 threshold,\n")
	fmt.Fprintf(w, "exactly the \"giving a chance to the third low performance\n")
	fmt.Fprintf(w, "implementation\" path of §3.\n")
	return nil
}

// NBestData retrieves the n best variants for the paper request.
func NBestData(n int) ([]retrieval.Result, error) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		return nil, err
	}
	e := retrieval.NewEngine(cb, retrieval.Options{})
	return e.RetrieveN(casebase.PaperRequest(), n)
}

// NBest demonstrates the §5 n-best extension on every engine.
func NBest(w io.Writer) error {
	for _, n := range []int{1, 2, 3} {
		rs, err := NBestData(n)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "n = %d:", n)
		for _, r := range rs {
			fmt.Fprintf(w, "  (impl %d, S=%.2f)", r.Impl, r.Similarity)
		}
		fmt.Fprintln(w)
	}

	// The same 3-best on the three fixed-point implementations.
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		return err
	}
	req := casebase.PaperRequest()
	fe, err := retrieval.NewFixedEngine(cb)
	if err != nil {
		return err
	}
	fx, err := fe.RetrieveN(req, 3)
	if err != nil {
		return err
	}
	hwUnit, err := hwsim.Build(cb, req, hwsim.Config{NBest: 3})
	if err != nil {
		return err
	}
	hwRes, err := hwUnit.Run(1 << 22)
	if err != nil {
		return err
	}
	sw, err := swret.NewRunner().RetrieveN(cb, req, 3)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n3-best agreement across implementations (impl: Q15):\n")
	fmt.Fprintf(w, "  fixed engine: ")
	for _, e := range fx {
		fmt.Fprintf(w, " (%d: %d)", e.Impl, e.Similarity)
	}
	fmt.Fprintf(w, "\n  hardware:     ")
	for _, e := range hwUnit.TopN() {
		fmt.Fprintf(w, " (%d: %d)", e.ImplID, e.Sim)
	}
	fmt.Fprintf(w, "  [%d cycles]", hwRes.Cycles)
	fmt.Fprintf(w, "\n  software:     ")
	for _, e := range sw.Entries {
		fmt.Fprintf(w, " (%d: %d)", e.ImplID, e.Sim)
	}
	fmt.Fprintf(w, "  [%d cycles]\n", sw.Cycles)
	fmt.Fprintf(w, "\nThe allocation manager checks feasibility best-first over this\n")
	fmt.Fprintf(w, "list instead of re-running retrieval per fallback.\n")
	return nil
}
