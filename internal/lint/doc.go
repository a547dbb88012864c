// Package lint is qosvet: a suite of project-specific static analyzers
// that machine-check the invariants the reproduction's verification
// story rests on, instead of trusting convention and catching drift in
// golden tests after the fact.
//
// The paper's retrieval unit is deterministic by construction — a fixed
// FSM walking pre-sorted BRAM lists with saturating 16-bit Q15
// arithmetic (§4.2) — and the repo's golden experiment outcomes
// (E18–E20), bit-exact replay tests and batched-vs-sequential
// bit-identity in internal/serve all depend on the Go side preserving
// that property. Each analyzer guards one invariant class:
//
//   - detlint: deterministic packages (alloc, rtsys, serve, retrieval,
//     obs, experiments, casebase) must not read the wall clock
//     (time.Now/time.Since), must not use the global math/rand source,
//     and must not do order-dependent work (slice appends, metric
//     writes, channel sends) inside map iteration — the exact bug class
//     behind the rtsys.AdvanceTo replay divergence fixed in PR 2.
//     Wall-clock seeding of rand sources is flagged in every package.
//
//   - q15lint: Q15/UQ16 fixed-point values may only be combined through
//     the saturating helpers in internal/fixed (AddSat, SubSat, Mul,
//     …), never with raw +, -, * that wrap where the hardware
//     MULT18X18-plus-clamp datapath saturates; float64 views of a Q15
//     must go through the Float method so the 2^-15 scale is applied.
//
//   - obslint: metric names must be constant (or constant-format
//     Sprintf series) matching qos_[a-z0-9_]+, histogram bucket sets
//     must be shared package-level variables, and instrumented code
//     must rely on the nil-registry dangling-bundle pattern instead of
//     branching on "is observability on" in hot paths.
//
//   - errlint: sentinel errors are compared with errors.Is/errors.As,
//     never ==/!=, and an error passed to fmt.Errorf must be wrapped
//     with %w so callers can still match it after wrapping.
//
//   - locklint: the serving core's deadlock discipline is declared once
//     in source with a directive,
//
//     //qosvet:lockorder commitMu < learnStripe.mu < shard.mu < allocMu
//
//     read left to right as outermost to innermost (commitMu is
//     acquired before the stripe mutexes, and so on). Tokens name lock
//     classes by trailing key components: a class is "pkg.Type.field"
//     for a struct-field mutex, "pkg.var" for a package-level one, so
//     the token shard.mu matches serve.shard.mu while commitMu matches
//     serve.Service.commitMu. The order is exported as a package fact
//     and inherited by importing packages; a per-function "may acquire"
//     summary (a LockSet object fact, propagated through vetx files and
//     a same-package call-graph fixpoint) lets the analyzer flag an
//     inversion even when the offending acquisition is buried behind
//     calls in another package. It also reports mutex-containing values
//     copied (parameters, receivers, assignments, range values, call
//     arguments) and Unlock/RUnlock calls with no matching acquisition
//     on the path. Acquiring equally-ranked instances (stripes/shards
//     in index order) is sanctioned.
//
//   - leaklint: go statements in the deterministic packages and
//     cmd/qosd must be tied to a tracked lifecycle: a WaitGroup.Add
//     earlier in the same function, a consulted context.Context in the
//     goroutine body, a channel receive/select/range, or a
//     WaitGroup.Done/Wait call. Same-package named callees are
//     inspected one hop deep; for out-of-package callees a context or
//     channel argument counts as the wiring. Untracked goroutines are
//     the raw material of drain/Close leaks.
//
// The suite runs as a standard vet tool: build cmd/qosvet and pass it
// to go vet -vettool (see make lint). locklint's facts make the run
// interprocedural: each dependency unit exports a JSON vetx payload
// ({"version":1,"facts":[{"pkg","obj","analyzer","type","fact"}...]},
// object facts keyed by "FuncName" or "Type.Method" paths) that
// downstream units decode against their import graph — see facts.go
// and unitchecker.go.
//
// Intentional, documented exceptions are suppressed in place with a
// comment on, or immediately above, the offending line:
//
//	//qosvet:ignore <analyzer> <reason>
//
// The reason is mandatory; a bare ignore is itself reported. In
// full-suite runs the suppression set is audited: a well-formed
// directive that no longer matches any finding is reported as stale,
// so the set can only shrink (disable with -audit=false).
//
// The -json flag switches output to a machine-readable stream for
// editor integrations: a flat JSON array, one element per diagnostic,
//
//	[{"analyzer": "locklint",
//	  "posn": "internal/serve/learn.go:212:2",
//	  "message": "locklint: ...",
//	  "suppressed": false}, ...]
//
// sorted by (file, line, column, analyzer). Suppressed findings are
// included with "suppressed": true so tools can render them dimmed;
// only unsuppressed findings affect the text-mode exit code.
//
// One more gate is not a vet analyzer: deadcode (deadcode_test.go)
// needs the whole module at once, since vet facts flow only from a
// package to its importers and cannot say that nobody uses a name. It
// typechecks every non-test file of this module and of the perfbench
// module and fails on any package-level func, method, type, var or
// const under internal/ that no non-test code reaches, directly or
// through other reached code. Uses from outside internal/, from init
// and main, exported methods of types the root package aliases, and
// methods that satisfy an interface (while their type is reached)
// count. A declaration only tests need keeps itself with a directive
// in its doc comment,
//
//	//qosvet:keep <reason>
//
// naming the check it serves. The reason is mandatory, and a keep on a
// name that non-test code reaches anyway is reported as stale.
//
// Test files (*_test.go) are exempt from all analyzers: tests may
// legitimately use wall-clock deadlines, identity assertions and
// short-lived goroutines, and the invariants gate the production
// pipeline that golden tests replay.
package lint
