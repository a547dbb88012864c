// Package learn closes the paper's CBR cycle (fig. 2) around the
// retrieval step and implements the §5 future work: "we conceive dynamic
// update mechanisms of Case-Base-data structures and function
// repositories at run-time enabling for a self-learning system".
//
// The paper's deployed system — like "many practical CBR
// implementations" (§5) — stops at Retrieve/Reuse. This package adds the
// remaining half of the cycle:
//
//   - Revise: applications (or the HW-layer's monitors) report the QoS
//     attribute values a running implementation actually achieved; a
//     Delta folds deviations from the case description in with an
//     exponentially weighted moving average, clamped to the design
//     bounds so dmax stays valid.
//   - Retain: new implementation variants arriving in the function
//     repository at run time are retained as new cases; withdrawn
//     variants are retired.
//
// Nothing here mutates the live CaseBase (retrieval structures and
// BRAM images are immutable): a commit drains the deltas and the
// structural edits into a Builder, which emits the next epoch's
// validated CaseBase for the caller to swap in. Only the types a commit
// changes are rebuilt and validated; everything else — whole types and,
// inside a rebuilt type, every variant no revision changed — is shared
// with the previous epoch, which is why no tree may ever be mutated.
package learn

import (
	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
)

// Observation is one run-time QoS measurement of a deployed variant.
type Observation struct {
	Type     casebase.TypeID
	Impl     casebase.ImplID
	Measured []attr.Pair // observed attribute values
}

type implKey struct {
	t casebase.TypeID
	i casebase.ImplID
}
