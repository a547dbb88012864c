package main

import (
	"errors"
	"math"
	"sync"

	"qosalloc"
	"qosalloc/internal/retrieval"
)

// The output check for the retrieval workloads: every op's served
// answer must equal a fresh retrieval.Engine walk of the same request
// over the same tree — Type, Impl and the Similarity's bits. Clients
// fold each answer into a 64-bit outcome word and keep only the sum;
// afterwards the checker walks every op's request on its own engines
// and sums the same words. Equal sums mean equal answers (a wrong
// answer changes its word, and a collision needs a 2^-64 accident), and
// the check stores nothing per op.

// Outcome codes folded into the word.
const (
	codeOK      = 0
	codeNoMatch = 1 // *ErrNoMatch: a domain outcome, checked like a result
	codeError   = 2 // anything else: a failed op
)

// isDomain reports whether err is a domain outcome of the allocation
// pipeline rather than a failure.
func isDomain(err error) bool {
	var nm *qosalloc.ErrNoMatch
	var nf *qosalloc.ErrNoFeasible
	return errors.As(err, &nm) || errors.As(err, &nf)
}

func outcomeCode(err error) uint64 {
	var nm *qosalloc.ErrNoMatch
	switch {
	case err == nil:
		return codeOK
	case errors.As(err, &nm):
		return codeNoMatch
	default:
		return codeError
	}
}

// outcomeWord folds op's served answer into one word.
func outcomeWord(op uint64, r qosalloc.Result, err error) uint64 {
	code := outcomeCode(err)
	if code != codeOK {
		r = qosalloc.Result{}
	}
	fields := uint64(r.Type)<<32 | uint64(r.Impl)<<8 | code
	return mix(mix(op^0x5bd1e995) ^ mix(fields) ^ mix(math.Float64bits(r.Similarity)^0x27d4eb2f165667c5))
}

// expectedDigest walks ops [0, n) on fresh engines over cb, in
// parallel, and returns the sum of their outcome words. reqAt writes op
// i's request into buf (an error stands for the op's answer); memo,
// when non-nil, answers some ops from a table instead (the hot set's
// walks, computed once).
func expectedDigest(cb *qosalloc.CaseBase, n uint64, workers int,
	reqAt func(i uint64, buf []qosalloc.Constraint) (qosalloc.Request, error),
	memo func(i uint64) (qosalloc.Result, error, bool), k int) (sum uint64, walks retrieval.Stats) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng := qosalloc.NewRetrievalEngine(cb)
			buf := make([]qosalloc.Constraint, k)
			var s uint64
			for i := uint64(w); i < n; i += uint64(workers) {
				if memo != nil {
					if r, err, ok := memo(i); ok {
						s += outcomeWord(i, r, err)
						continue
					}
				}
				req, err := reqAt(i, buf)
				var r qosalloc.Result
				if err == nil {
					r, err = eng.Retrieve(req)
				}
				s += outcomeWord(i, r, err)
			}
			st := eng.Stats()
			mu.Lock()
			sum += s
			walks.Retrievals += st.Retrievals
			walks.ImplsScored += st.ImplsScored
			walks.AttrsCompared += st.AttrsCompared
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return sum, walks
}
