package serve

import (
	"qosalloc/internal/casebase"
	"qosalloc/internal/retrieval"
)

// snapshot is one committed epoch of the case base: the immutable tree
// plus the retrieval engine and per-shard bypass token caches built
// over it, installed behind Service.snap as a single unit. Readers load
// the pointer once per call or batch and never see a half-updated
// epoch: the engine, the token caches and the tree always agree, and a
// token holds the answer this epoch's engine gave. The engine is safe
// for concurrent use, so every shard batch, every inline walk and the
// allocation manager of the epoch share it.
//
// Epochs are numbered from 1 (the snapshot New builds). Every commit —
// fold, structural retain/retire, or manual CommitNow — installs epoch
// N+1 with a fresh engine and empty token caches. The snapshot is the
// caches' epoch binding: a token lives only in the caches of the epoch
// it was minted against, so it can never bypass retrieval against
// epoch N+1.
type snapshot struct {
	epoch  uint64
	cb     *casebase.CaseBase
	engine *retrieval.Engine
	tokens []*retrieval.TokenCache
}

// CaseBase returns the committed epoch's case base — the immutable tree
// the service currently retrieves against. After a commit it returns
// the new tree; callers validating requests against it must tolerate a
// request racing a commit (the service's own epoch checks do).
func (s *Service) CaseBase() *casebase.CaseBase { return s.snap.Load().cb }

// newSnapshot builds the epoch's engine, counting into rm, and its
// per-shard token caches over cb.
func newSnapshot(epoch uint64, cb *casebase.CaseBase, shards int, opt retrieval.Options, rm *retrieval.Metrics) *snapshot {
	sn := &snapshot{epoch: epoch, cb: cb, engine: retrieval.NewEngine(cb, opt)}
	sn.engine.Instrument(rm)
	for i := 0; i < shards; i++ {
		sn.tokens = append(sn.tokens, retrieval.NewTokenCache())
	}
	return sn
}
