// Package qosalloc is a reproduction of "Hardware Support for QoS-based
// Function Allocation in Reconfigurable Systems" (Ullmann, Jin, Becker;
// DATE): case-based-reasoning retrieval of function-implementation
// variants under quality-of-service constraints, a cycle-accurate model
// of the paper's FPGA retrieval unit, a MicroBlaze-class software
// baseline, and the surrounding multi-device allocation system.
//
// # Architecture
//
// The public API mirrors the paper's layering (fig. 1):
//
//   - Case base & requests: NewRegistry/NewBuilder describe the
//     design-time implementation tree — function types, variants, QoS
//     attributes — and NewRequest builds QoS-constrained function
//     requests (package internal/attr, internal/casebase).
//   - Retrieval: NewRetrievalEngine is the double-precision reference
//     retrieval (eq. 1 local similarity, eq. 2 weighted amalgamation,
//     thresholds, n-best, and RetrieveAll's per-attribute Table 1
//     breakdown); NewFixedEngine is the bit-exact 16-bit twin of the
//     hardware datapath, scoring over the §5 block-compacted memory image
//     (internal/retrieval, internal/similarity, internal/fixed).
//   - Memory images: EncodeTree/EncodeRequest/EncodeSupplemental lay the
//     case base out as the paper's 16-bit linear lists (figs. 4–5), the
//     format both hardware and software retrieval consume
//     (internal/memlist).
//   - Hardware unit: HWRetrieve runs the cycle-accurate FSM + datapath
//     simulation (fig. 6–7) including the §5 block-compact fetch option
//     (internal/hwsim on internal/rtl); EstimateSynthesis reproduces the
//     Table 2 area/clock report (internal/synth).
//   - Software baseline: NewSWRunner executes the same retrieval as
//     MicroBlaze-class assembly on a cycle-cost CPU model
//     (internal/swret on internal/mb32).
//   - System: NewFPGADevice/NewProcessorDevice/NewRepository model the
//     platform, NewRuntime the task layer with adaptive priorities, and
//     NewAllocationManager the QoS allocation manager — feasibility
//     checks, preemption, alternative offers and bypass tokens
//     (internal/device, internal/rtsys, internal/alloc). NewService is
//     the concurrent front end over it: sharded, batched retrieval and,
//     with WithLearning, live case-base revision and retention
//     (internal/serve, internal/learn).
//   - Workloads & experiments: GenCaseBase/GenRequests synthesize
//     paper-scale inputs; Experiments exposes one driver per table and
//     figure of the paper (internal/workload, internal/experiments).
//
// # Quickstart
//
// Build a case base, ask for a function under QoS constraints, and read
// the ranked answers:
//
//	cb, _ := qosalloc.PaperCaseBase()
//	eng := qosalloc.NewRetrievalEngine(cb)
//	best, _ := eng.Retrieve(qosalloc.PaperRequest())
//	fmt.Println(best.Name, best.Similarity) // fir-eq-dsp 0.96...
//
// See examples/ for runnable scenarios and cmd/repro for the full
// reproduction of every table and figure.
package qosalloc
