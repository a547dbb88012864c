package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/learn"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "learning",
		Title: "Self-learning case-base update (fig. 2 cycle, §5 outlook)",
		Paper: "\"dynamic update mechanisms of Case-Base-data structures ... enabling for a self-learning system\"",
		Run:   Learning,
	})
}

// LearningData summarizes the self-learning run.
type LearningData struct {
	Requests        int
	DriftedImpls    int
	MeanSimStatic   float64 // delivered similarity without learning
	MeanSimLearning float64 // delivered similarity with revise/retain
	Rebuilds        int
}

// LearningRun simulates attribute drift: a fraction of implementations
// deliver worse QoS than their design-time case descriptions advertise
// (aged silicon, contention, optimistic characterization). Without
// learning, retrieval keeps trusting the stale advertisements; with the
// fig. 2 revise loop, run-time observations fold the real values back
// into the case base and later retrievals choose better.
func LearningRun() (LearningData, error) {
	advertised, reg, err := workload.GenCaseBase(workload.CaseBaseSpec{
		Types: 6, ImplsPerType: 6, AttrsPerImpl: 6, AttrUniverse: 6, Seed: 9,
	})
	if err != nil {
		return LearningData{}, err
	}

	// Ground truth: 40 % of implementations drift on every attribute
	// by a large fraction of its range.
	r := rand.New(rand.NewSource(2))
	truth := map[[2]uint16][]attr.Pair{} // (type, impl) → true attrs
	var d LearningData
	for _, ft := range advertised.Types() {
		for i := range ft.Impls {
			im := &ft.Impls[i]
			key := [2]uint16{uint16(ft.ID), uint16(im.ID)}
			pairs := append([]attr.Pair(nil), im.Attrs...)
			if r.Float64() < 0.4 {
				d.DriftedImpls++
				for j := range pairs {
					def, _ := reg.Lookup(pairs[j].ID)
					span := int(def.Hi - def.Lo)
					drift := attr.Value(r.Intn(span/2 + 1))
					if int(pairs[j].Value)-int(drift) >= int(def.Lo) {
						pairs[j].Value -= drift
					} else {
						pairs[j].Value = def.Lo
					}
				}
			}
			truth[key] = pairs
		}
	}
	trueCB, err := rebuildWith(advertised, truth)
	if err != nil {
		return d, err
	}
	trueEngine := retrieval.NewEngine(trueCB, retrieval.Options{})

	reqs, err := workload.GenRequests(advertised, reg, workload.RequestStreamSpec{
		N: 240, ConstraintsPer: 4, Seed: 33,
	})
	if err != nil {
		return d, err
	}
	d.Requests = len(reqs)

	// deliveredSim scores what impl actually provides for req.
	deliveredSim := func(req casebase.Request, impl casebase.ImplID) (float64, error) {
		all, err := trueEngine.RetrieveAll(req)
		if err != nil {
			return 0, err
		}
		for _, res := range all {
			if res.Impl == impl {
				return res.Similarity, nil
			}
		}
		return 0, fmt.Errorf("learning: impl %d missing from true ranking", impl)
	}

	// Static policy: trust the advertisements forever.
	{
		eng := retrieval.NewEngine(advertised, retrieval.Options{})
		var sum float64
		for _, req := range reqs {
			best, err := eng.Retrieve(req)
			if err != nil {
				return d, err
			}
			s, err := deliveredSim(req, best.Impl)
			if err != nil {
				return d, err
			}
			sum += s
		}
		d.MeanSimStatic = sum / float64(len(reqs))
	}

	// Learning policy: observe the true attributes of every deployed
	// variant into an EWMA delta, fold it into a rebuilt case base every
	// 40 requests.
	{
		current := advertised
		eng := retrieval.NewEngine(current, retrieval.Options{})
		delta, err := learn.NewDelta(current, 0.5)
		if err != nil {
			return d, err
		}
		var sum float64
		for i, req := range reqs {
			best, err := eng.Retrieve(req)
			if err != nil {
				return d, err
			}
			s, err := deliveredSim(req, best.Impl)
			if err != nil {
				return d, err
			}
			sum += s
			if _, err := delta.Observe(learn.Observation{
				Type: req.Type, Impl: best.Impl,
				Measured: truth[[2]uint16{uint16(req.Type), uint16(best.Impl)}],
			}); err != nil {
				return d, err
			}
			if (i+1)%40 == 0 {
				b := learn.NewBuilder(current)
				delta.FoldInto(b)
				next, _, err := b.Build()
				if err != nil {
					return d, err
				}
				current = next
				eng = retrieval.NewEngine(current, retrieval.Options{})
				delta.Reset(current)
				d.Rebuilds++
			}
		}
		d.MeanSimLearning = sum / float64(len(reqs))
	}
	return d, nil
}

// rebuildWith clones a case base substituting attribute sets.
func rebuildWith(cb *casebase.CaseBase, attrs map[[2]uint16][]attr.Pair) (*casebase.CaseBase, error) {
	b := casebase.NewBuilder(cb.Registry())
	for _, ft := range cb.Types() {
		b.AddType(ft.ID, ft.Name)
		for i := range ft.Impls {
			im := ft.Impls[i]
			if ps, ok := attrs[[2]uint16{uint16(ft.ID), uint16(im.ID)}]; ok {
				im.Attrs = ps
			}
			b.AddImpl(ft.ID, im)
		}
	}
	return b.Build()
}

// Learning renders the E13 run.
func Learning(w io.Writer) error {
	d, err := LearningRun()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "requests:                       %d\n", d.Requests)
	fmt.Fprintf(w, "implementations with QoS drift: %d\n", d.DriftedImpls)
	fmt.Fprintf(w, "case-base rebuilds:             %d\n", d.Rebuilds)
	fmt.Fprintf(w, "mean delivered similarity:\n")
	fmt.Fprintf(w, "  static case base:             %.3f\n", d.MeanSimStatic)
	fmt.Fprintf(w, "  with revise/retain loop:      %.3f\n", d.MeanSimLearning)
	fmt.Fprintf(w, "\nObserving delivered QoS and folding it back into the case base\n")
	fmt.Fprintf(w, "(the fig. 2 revise step) recovers similarity lost to stale\n")
	fmt.Fprintf(w, "advertisements — the self-learning system of the paper's outlook.\n")
	return nil
}
