package qosalloc

// Benchmark harness: one benchmark per paper table/figure (DESIGN.md §4)
// plus the §5/§4.1 design-choice ablations. Simulated hardware/software
// costs are reported through custom metrics (cycles/op at the simulated
// clock), host-CPU time through the usual ns/op.
//
// Run everything with:
//
//	go test -bench=. -benchmem

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"qosalloc/internal/alloc"
	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/cbjson"
	"qosalloc/internal/device"
	"qosalloc/internal/experiments"
	"qosalloc/internal/fixed"
	"qosalloc/internal/hwsim"
	"qosalloc/internal/learn"
	"qosalloc/internal/mb32"
	"qosalloc/internal/memlist"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/rtsys"
	"qosalloc/internal/similarity"
	"qosalloc/internal/swret"
	"qosalloc/internal/synth"
	"qosalloc/internal/workload"
)

func paperFixtures(b *testing.B) (*casebase.CaseBase, casebase.Request) {
	b.Helper()
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		b.Fatal(err)
	}
	return cb, casebase.PaperRequest()
}

func paperScaleFixtures(b *testing.B) (*casebase.CaseBase, []casebase.Request) {
	b.Helper()
	cb, reg, err := workload.GenCaseBase(workload.PaperScale())
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := workload.GenRequests(cb, reg, workload.RequestStreamSpec{N: 64, ConstraintsPer: 4, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	return cb, reqs
}

// BenchmarkTable1Retrieval (E1): the float64 reference retrieval on the
// paper's §3 example.
func BenchmarkTable1Retrieval(b *testing.B) {
	cb, req := paperFixtures(b)
	e := retrieval.NewEngine(cb, retrieval.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Retrieve(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesisEstimate (E2 / Table 2): the area/timing model.
func BenchmarkSynthesisEstimate(b *testing.B) {
	n := synth.RetrievalUnitNetlist(13)
	for i := 0; i < b.N; i++ {
		r := synth.Estimate(n, synth.XC2V3000, synth.VirtexII())
		if r.Slices == 0 {
			b.Fatal("empty estimate")
		}
	}
}

// BenchmarkMemoryImageEncode (E3 / Table 3): encoding the paper-scale
// implementation tree into its BRAM image.
func BenchmarkMemoryImageEncode(b *testing.B) {
	cb, _ := paperScaleFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := memlist.EncodeTree(cb)
		if err != nil {
			b.Fatal(err)
		}
		if img.Size() == 0 {
			b.Fatal("empty image")
		}
	}
}

// BenchmarkHWRetrievalCycles (E4): the cycle-accurate hardware unit at
// paper scale; simulated cycles per retrieval are the headline metric.
func BenchmarkHWRetrievalCycles(b *testing.B) {
	cb, reqs := paperScaleFixtures(b)
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hwsim.Retrieve(cb, reqs[i%len(reqs)], hwsim.Config{})
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "hwcycles/op")
}

// BenchmarkSWRetrievalCycles (E4): the MicroBlaze-class software
// baseline at paper scale.
func BenchmarkSWRetrievalCycles(b *testing.B) {
	cb, reqs := paperScaleFixtures(b)
	r := swret.NewRunner()
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Retrieve(cb, reqs[i%len(reqs)])
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "swcycles/op")
}

// BenchmarkFixedVsFloat (E5): the 16-bit fixed-point engine against the
// float64 engine at paper scale; both run per iteration so the ns/op
// gap is directly visible.
func BenchmarkFixedVsFloat(b *testing.B) {
	cb, reqs := paperScaleFixtures(b)
	b.Run("float64", func(b *testing.B) {
		e := retrieval.NewEngine(cb, retrieval.Options{})
		for i := 0; i < b.N; i++ {
			if _, err := e.Retrieve(reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fixed16", func(b *testing.B) {
		fe, err := retrieval.NewFixedEngine(cb)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := fe.Retrieve(reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNBestRetrieval (E7): the §5 n-best extension vs repeated
// single-best retrieval.
func BenchmarkNBestRetrieval(b *testing.B) {
	cb, reqs := paperScaleFixtures(b)
	e := retrieval.NewEngine(cb, retrieval.Options{})
	b.Run("n=3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.RetrieveN(reqs[i%len(reqs)], 3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("n=1x3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := 0; k < 3; k++ {
				if _, err := e.Retrieve(reqs[i%len(reqs)]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkCompactFetch (E8): baseline vs §5 block-compacted fetch,
// reporting simulated cycles.
func BenchmarkCompactFetch(b *testing.B) {
	cb, reqs := paperScaleFixtures(b)
	for _, cfg := range []struct {
		name    string
		compact bool
	}{{"baseline", false}, {"compact", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := hwsim.Retrieve(cb, reqs[i%len(reqs)], hwsim.Config{Compact: cfg.compact})
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "hwcycles/op")
		})
	}
}

// BenchmarkBypassToken (E9): token-cache hit vs a full retrieval — the
// repeated-call saving of §3.
func BenchmarkBypassToken(b *testing.B) {
	cb, req := paperFixtures(b)
	e := retrieval.NewEngine(cb, retrieval.Options{})
	tc := retrieval.NewTokenCache()
	best, err := e.Retrieve(req)
	if err != nil {
		b.Fatal(err)
	}
	tc.Store(retrieval.Hash(req), req, retrieval.Token{Type: req.Type, Impl: best.Impl, Similarity: best.Similarity})
	b.Run("token-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := tc.Lookup(retrieval.Hash(req), req); !ok {
				b.Fatal("token lost")
			}
		}
	})
	b.Run("full-retrieval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.Retrieve(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEndToEndAllocation (E10): one manager request/release cycle
// on the fig. 1 platform.
func BenchmarkEndToEndAllocation(b *testing.B) {
	res, err := experiments.SystemRun()
	if err != nil {
		b.Fatal(err)
	}
	if res.Failures != 0 {
		b.Fatalf("scenario failed %d allocations", res.Failures)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SystemRun(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReciprocalVsDivide (ablation, DESIGN.md §5): the paper's
// divider-free local similarity vs a true fixed-point division.
func BenchmarkReciprocalVsDivide(b *testing.B) {
	recip := fixed.Recip(36)
	b.Run("mul-recip", func(b *testing.B) {
		var acc fixed.Q15
		for i := 0; i < b.N; i++ {
			acc += fixed.LocalSim(uint32(i&31), recip)
		}
		_ = acc
	})
	b.Run("divide", func(b *testing.B) {
		var acc fixed.Q15
		for i := 0; i < b.N; i++ {
			acc += fixed.SubSat(fixed.OneQ15, fixed.DivQ15(uint32(i&31), 37))
		}
		_ = acc
	})
}

// BenchmarkSortedScanVsRestart (ablation, §4.1): resumable sorted-list
// scanning vs restart-from-top, in simulated hardware cycles.
func BenchmarkSortedScanVsRestart(b *testing.B) {
	cb, reqs := paperScaleFixtures(b)
	for _, cfg := range []struct {
		name    string
		restart bool
	}{{"resumable", false}, {"restart", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := hwsim.Retrieve(cb, reqs[i%len(reqs)], hwsim.Config{RestartScan: cfg.restart})
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "hwcycles/op")
		})
	}
}

// BenchmarkExperimentDrivers keeps the report generators honest: every
// table/figure driver must run cleanly.
func BenchmarkExperimentDrivers(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Run(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHWNBest (E7 hardware variant): single-best vs the §5 n-best
// register file in simulated cycles.
func BenchmarkHWNBest(b *testing.B) {
	cb, reqs := paperScaleFixtures(b)
	for _, n := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				u, err := hwsim.Build(cb, reqs[i%len(reqs)], hwsim.Config{NBest: n})
				if err != nil {
					b.Fatal(err)
				}
				res, err := u.Run(1 << 24)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "hwcycles/op")
		})
	}
}

// BenchmarkMahalanobis (E11): construction (covariance + inversion) and
// per-comparison cost of the rejected §2.2 design point.
func BenchmarkMahalanobis(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	const dim = 8
	samples := make([][]float64, 64)
	for i := range samples {
		samples[i] = make([]float64, dim)
		for j := range samples[i] {
			samples[i][j] = r.Float64() * 100
		}
	}
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := similarity.NewMahalanobis(samples); err != nil {
				b.Fatal(err)
			}
		}
	})
	m, err := similarity.NewMahalanobis(samples)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("compare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Similarity(samples[i%32], samples[(i+7)%64])
		}
	})
	b.Run("compare-linear", func(b *testing.B) {
		lin := similarity.Linear{}
		for i := 0; i < b.N; i++ {
			var s float64
			for j := 0; j < dim; j++ {
				s += lin.Similarity(
					attrValue(samples[i%32][j]), attrValue(samples[(i+7)%64][j]), 200)
			}
			_ = s
		}
	})
}

func attrValue(f float64) attr.Value { return attr.Value(uint16(f)) }

// BenchmarkLearnRebuild (E13): cost of one revise-and-rebuild cycle at
// paper scale.
func BenchmarkLearnRebuild(b *testing.B) {
	cb, _ := paperScaleFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := learn.NewDelta(cb, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		ft := cb.Types()[0]
		if _, err := d.Observe(learn.Observation{
			Type: ft.ID, Impl: ft.Impls[0].ID,
			Measured: ft.Impls[0].Attrs[:1],
		}); err != nil {
			b.Fatal(err)
		}
		bld := learn.NewBuilder(cb)
		d.FoldInto(bld)
		if _, _, err := bld.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemoryImageDecode: parsing the paper-scale tree image back,
// the verification path of the memory tooling.
func BenchmarkMemoryImageDecode(b *testing.B) {
	cb, _ := paperScaleFixtures(b)
	img, err := memlist.EncodeTree(cb)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := memlist.DecodeTree(img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMB32Throughput: host-side simulation speed of the soft-core
// model, in simulated instructions per host second.
func BenchmarkMB32Throughput(b *testing.B) {
	prog := mb32.MustAssemble(`
		addi r1, r0, 1000
	loop:	addi r2, r2, 7
		xor  r3, r2, r1
		addi r1, r1, -1
		bgtz r1, loop
		halt
	`)
	var retired uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := mb32.New(prog, 64)
		if _, err := c.Run(10_000); err != nil {
			b.Fatal(err)
		}
		retired += c.Stats.Retired
	}
	b.ReportMetric(float64(retired)/float64(b.N), "instrs/op")
}

// BenchmarkJSONRoundTrip: case-base persistence at paper scale.
func BenchmarkJSONRoundTrip(b *testing.B) {
	cb, _ := paperScaleFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := cbjson.Encode(&buf, cb); err != nil {
			b.Fatal(err)
		}
		if _, err := cbjson.Decode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultRecovery: the degrade-and-retry path end to end — a
// device failure strands a placed task, the manager re-runs retrieval
// excluding the dead target class and re-places the task on a substitute
// variant. The custom metric reports the simulated recovery latency
// (fault hit → substitute configuration ready) alongside host ns/op.
func BenchmarkFaultRecovery(b *testing.B) {
	cb, req := paperFixtures(b)
	var simLat float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		repo := device.NewRepository(20)
		if err := repo.PopulateFromCaseBase(cb); err != nil {
			b.Fatal(err)
		}
		sys := rtsys.NewSystem(repo,
			device.NewFPGA("fpga0", []device.Slot{
				{Slices: 1500, BRAMs: 8, Multipliers: 16},
				{Slices: 1500, BRAMs: 8, Multipliers: 16},
			}, 66),
			device.NewProcessor("dsp0", casebase.TargetDSP, 1000, 128*1024),
			device.NewProcessor("gpp0", casebase.TargetGPP, 1000, 256*1024),
		)
		m := alloc.New(retrieval.NewEngine(cb, retrieval.Options{}), sys, alloc.Options{})
		if _, err := m.Request("mp3", req, 5); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		if _, err := sys.FailDevice("dsp0"); err != nil {
			b.Fatal(err)
		}
		recs := m.RecoverFromFaults()
		if len(recs) != 1 || recs[0].Decision == nil {
			b.Fatalf("recovery = %+v", recs)
		}
		simLat += float64(recs[0].Decision.ReadyAt - sys.Now())
	}
	b.ReportMetric(simLat/float64(b.N), "sim-us/recovery")
}
