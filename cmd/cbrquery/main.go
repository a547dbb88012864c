// Command cbrquery runs one QoS retrieval against a case base from the
// command line, on any of the four engines.
//
// Usage:
//
//	cbrquery -type 1 -c 1=16 -c 3=1 -c 4=40                  # paper case base, float engine
//	cbrquery -type 1 -c bitwidth=16 -c output-mode=stereo -c sample-rate=40  # by name/symbol
//	cbrquery -type 1 -c 1=16 -c 3=1 -c 4=40 -engine hw       # cycle-accurate hardware
//	cbrquery -type 1 -c 1=16 -c 3=1 -c 4=40 -engine sw       # MicroBlaze software model
//	cbrquery -type 1 -c 1=16 -c 3=1 -c 4=40 -n 3 -threshold 0.5
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"qosalloc"
)

// constraintFlags collects repeated -c flags as raw strings; attribute
// names and symbolic values resolve against the loaded case base's
// registry, so both `-c 4=40` and `-c sample-rate=40` (and even
// `-c output-mode=stereo`) work.
type constraintFlags []string

func (c *constraintFlags) String() string { return fmt.Sprintf("%d constraints", len(*c)) }

func (c *constraintFlags) Set(s string) error {
	if !strings.Contains(s, "=") {
		return fmt.Errorf("want attr=value[:weight], got %q", s)
	}
	*c = append(*c, s)
	return nil
}

// resolve turns the raw -c strings into constraints using the registry.
func (c constraintFlags) resolve(reg *qosalloc.Registry) ([]qosalloc.Constraint, error) {
	var out []qosalloc.Constraint
	for _, raw := range c {
		key, rest, _ := strings.Cut(raw, "=")
		val, weightStr, hasW := strings.Cut(rest, ":")

		var def qosalloc.AttrDef
		if id, err := strconv.ParseUint(key, 10, 16); err == nil {
			d, ok := reg.Lookup(qosalloc.AttrID(id))
			if !ok {
				return nil, fmt.Errorf("unknown attribute ID %s", key)
			}
			def = d
		} else if d, ok := reg.ByName(key); ok {
			def = d
		} else {
			return nil, fmt.Errorf("unknown attribute %q", key)
		}

		v, err := def.ParseValue(val)
		if err != nil {
			return nil, err
		}
		w := 0.0
		if hasW {
			w, err = strconv.ParseFloat(weightStr, 64)
			if err != nil {
				return nil, fmt.Errorf("bad weight in %q", raw)
			}
		}
		out = append(out, qosalloc.Constraint{ID: def.ID, Value: v, Weight: w})
	}
	return out, nil
}

func main() {
	var cons constraintFlags
	typeID := flag.Uint("type", 1, "requested function type ID")
	engine := flag.String("engine", "float", "engine: float, fixed, hw, sw")
	n := flag.Int("n", 1, "return the n most similar variants (float engine)")
	threshold := flag.Float64("threshold", 0, "reject results below this similarity")
	local := flag.String("local", "linear", "local measure: linear, quadratic, exact, at-least")
	amal := flag.String("amalgamation", "weighted-sum", "weighted-sum, minimum, maximum, weighted-euclid")
	vcd := flag.String("vcd", "", "with -engine hw: dump an FSM waveform (VCD) to this file")
	load := flag.String("load", "", "load the case base from a JSON file (see cbrgen -json)")
	gen := flag.Bool("gen", false, "query a generated paper-scale case base instead of the §3 example")
	seed := flag.Int64("seed", 1, "generator seed with -gen")
	flag.Var(&cons, "c", "constraint id=value[:weight], repeatable")
	flag.Parse()

	var cb *qosalloc.CaseBase
	var err error
	if *load != "" {
		f, ferr := os.Open(*load)
		if ferr != nil {
			fatal(ferr)
		}
		cb, err = qosalloc.LoadCaseBase(f)
		f.Close()
	} else if *gen {
		cb, _, err = qosalloc.GenCaseBase(func() qosalloc.CaseBaseSpec {
			s := qosalloc.PaperScaleSpec()
			s.Seed = *seed
			return s
		}())
	} else {
		cb, err = qosalloc.PaperCaseBase()
	}
	if err != nil {
		fatal(err)
	}
	if len(cons) == 0 {
		fatal(fmt.Errorf("at least one -c constraint required"))
	}
	resolved, err := cons.resolve(cb.Registry())
	if err != nil {
		fatal(err)
	}
	req := qosalloc.NewRequest(qosalloc.TypeID(*typeID), resolved...)
	weighted := false
	for _, c := range req.Constraints {
		if c.Weight > 0 {
			weighted = true
		}
	}
	if weighted {
		req = req.NormalizeWeights()
	} else {
		req = req.EqualWeights()
	}

	switch *engine {
	case "float":
		lm, err := qosalloc.LocalMeasureByName(*local)
		if err != nil {
			fatal(err)
		}
		am, err := qosalloc.AmalgamationByName(*amal)
		if err != nil {
			fatal(err)
		}
		e := qosalloc.NewRetrievalEngine(cb, qosalloc.WithLocalMeasure(lm),
			qosalloc.WithAmalgamation(am), qosalloc.WithThreshold(*threshold))
		rs, err := e.RetrieveN(req, *n)
		if err != nil {
			fatal(err)
		}
		// RetrieveN's answer is the head of RetrieveAll's ranking, which
		// carries the per-attribute breakdowns.
		all, err := e.RetrieveAll(req)
		if err != nil {
			fatal(err)
		}
		for i, r := range rs {
			fmt.Printf("#%d impl %d (%s, %s): S = %.4f\n", i+1, r.Impl, r.Name, r.Target, r.Similarity)
			for _, l := range all[i].Locals {
				fmt.Printf("     attr %d: req=%d impl=%d found=%v s=%.4f w=%.3f\n",
					l.ID, l.Req, l.Impl, l.Found, l.Sim, l.Weight)
			}
		}
	case "fixed":
		fe, err := qosalloc.NewFixedEngine(cb)
		if err != nil {
			fatal(err)
		}
		rs, err := fe.RetrieveN(req, *n)
		if err != nil {
			fatal(err)
		}
		for i, r := range rs {
			fmt.Printf("#%d impl %d: S = %.4f (Q15 %d)\n", i+1, r.Impl, r.Float(), r.Similarity)
		}
	case "hw":
		cfg := qosalloc.HWConfig{}
		if *vcd != "" {
			cfg.Trace = qosalloc.NewHWTrace()
		}
		res, err := qosalloc.HWRetrieve(cb, req, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("impl %d: S = %.4f (Q15 %d), %d cycles (%.2f us at 75 MHz)\n",
			res.ImplID, res.Sim.Float(), res.Sim, res.Cycles, float64(res.Cycles)/75)
		if *vcd != "" {
			f, err := os.Create(*vcd)
			if err != nil {
				fatal(err)
			}
			if err := qosalloc.WriteVCD(f, cfg.Trace, "retrieval_unit"); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote waveform to %s\n", *vcd)
		}
	case "sw":
		res, err := qosalloc.NewSWRunner().Retrieve(cb, req)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("impl %d: S = %.4f (Q15 %d), %d cycles / %d instructions (%.2f us at 66 MHz)\n",
			res.ImplID, res.Sim.Float(), res.Sim, res.Cycles, res.Instructions,
			float64(res.Cycles)/66)
	default:
		fatal(fmt.Errorf("unknown engine %q", *engine))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cbrquery: %v\n", err)
	os.Exit(1)
}
