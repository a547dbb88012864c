package experiments

import (
	"fmt"
	"io"

	"qosalloc/internal/retrieval"
	"qosalloc/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "bypass",
		Title: "Bypass tokens on repeated function calls (§3)",
		Paper: "\"a kind of bypass-token ... so that only an availability check has to be done\"",
		Run:   Bypass,
	})
}

// BypassPoint is one sample of the repetition sweep.
type BypassPoint struct {
	RepeatFraction  float64
	Requests        int
	Retrievals      int
	TokenHits       int
	RetrievalsSaved float64 // fraction of retrievals avoided
}

// BypassSweep replays request streams with growing repetition through a
// token cache and counts the retrievals avoided.
func BypassSweep() ([]BypassPoint, error) {
	cb, reg, err := workload.GenCaseBase(workload.PaperScale())
	if err != nil {
		return nil, err
	}
	e := retrieval.NewEngine(cb, retrieval.Options{})
	var out []BypassPoint
	for _, rf := range []float64{0, 0.25, 0.5, 0.75, 0.9} {
		reqs, err := workload.GenRequests(cb, reg, workload.RequestStreamSpec{
			N: 400, ConstraintsPer: 4, RepeatFraction: rf, Seed: 77,
		})
		if err != nil {
			return nil, err
		}
		tc := retrieval.NewTokenCache()
		pt := BypassPoint{RepeatFraction: rf, Requests: len(reqs)}
		for _, req := range reqs {
			h := retrieval.Hash(req)
			if _, ok := tc.Lookup(h, req); ok {
				pt.TokenHits++
				continue
			}
			best, err := e.Retrieve(req)
			if err != nil {
				return nil, err
			}
			pt.Retrievals++
			tc.Store(h, req, retrieval.Token{Type: req.Type, Impl: best.Impl, Similarity: best.Similarity})
		}
		pt.RetrievalsSaved = float64(pt.TokenHits) / float64(pt.Requests)
		out = append(out, pt)
	}
	return out, nil
}

// Bypass renders the E9 sweep.
func Bypass(w io.Writer) error {
	pts, err := BypassSweep()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %9s %11s %10s %8s\n", "repeat", "requests", "retrievals", "token hits", "saved")
	for _, p := range pts {
		fmt.Fprintf(w, "%-8.2f %9d %11d %10d %7.1f%%\n",
			p.RepeatFraction, p.Requests, p.Retrievals, p.TokenHits, 100*p.RetrievalsSaved)
	}
	fmt.Fprintf(w, "\nEvery repeated call skips the retrieval scan entirely; only the\n")
	fmt.Fprintf(w, "availability check remains, as §3 sketches.\n")
	return nil
}
