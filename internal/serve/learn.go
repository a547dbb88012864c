package serve

// Live case-base mutation (DESIGN.md §14): the service closes the
// paper's fig. 2 CBR cycle under full read traffic. Observations
// accumulate in volatile per-stripe deltas off the read path
// (learn.Delta); when the fold policy trips — or a structural
// Retain/Retire/CommitNow forces it — the committer folds every stripe
// into a learn.Builder, builds a validated CaseBase, and installs a
// fresh snapshot (tree + engine + empty epoch-bound token caches)
// behind the atomic pointer, in the same allocMu section that moves the
// manager onto the new tree. No fence follows the store: a batch, a
// Retrieve or an Allocate that loaded the old snapshot finishes on the
// old tree, as a call that started before the commit may, and the walk
// counts live in the service, not in the retired engine.
//
// The deadlock discipline is declared below and machine-checked by
// qosvet's locklint (see internal/lint/locklint.go): commitMu is
// acquired before every stripe mutex (taken in index order, held
// across fold, swap and rebase), which come before allocMu. Observe
// takes only its stripe mutex, and never while holding commitMu; the
// sim-time age bound is evaluated at mutation entry points and
// CommitNow, never from the tick path (which runs under allocMu). A
// shard's token mutex is taken inside its batch mutex, or alone, for
// one token lookup or store at a time.
//
//qosvet:lockorder commitMu < learnStripe.mu < shard.mu < shard.tokMu < allocMu

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/learn"
)

// ErrLearningOff reports a mutation call on a service built without
// Learning.Enabled: its case base is frozen for the process lifetime.
var ErrLearningOff = fmt.Errorf("serve: learning disabled (case base is frozen)")

// ErrStaleEpoch reports work prepared against an epoch that a commit
// has since retired: an Allocate whose candidates were scored before a
// swap landed, or a Retain/Retire conditioned on an epoch that moved.
// The caller re-reads the committed state and retries.
type ErrStaleEpoch struct {
	At        uint64 // epoch the work was prepared against
	Committed uint64 // epoch committed when the work tried to land
}

func (e *ErrStaleEpoch) Error() string {
	return fmt.Sprintf("serve: epoch %d is stale (committed epoch is %d)", e.At, e.Committed)
}

// EpochStats snapshots the mutation-side counters.
type EpochStats struct {
	Epoch        uint64 // committed epoch (1 until the first commit)
	Commits      int64  // snapshot swaps installed (all reasons)
	Folds        int64  // commits tripped by the fold policy
	Observations int64  // observations accepted into writer deltas
	FoldedObs    int64  // observations folded into committed epochs
	PendingObs   int64  // observations still pending in deltas
	PendingRevs  int64  // LSB-visible attribute revisions pending
	Retained     int64  // implementations retained
	Retired      int64  // implementations retired
	StaleRetries int64  // Allocate candidate re-fetches after a swap
}

// noPending is the firstAt sentinel: no observation is pending.
const noPending = ^uint64(0)

// learnStripe is one writer lane of the deferred net-commit layer. The
// delta's EWMA state is key-local, so which stripe holds a key changes
// contention only, never values or fold points.
type learnStripe struct {
	mu    sync.Mutex
	delta *learn.Delta
}

// learnState is the service's mutation state (nil when learning is
// off): per-shard writer stripes plus the global fold-policy counters.
// The counters are global — not per stripe — precisely so fold points
// are invariant under the shard count (part of the replay contract).
type learnState struct {
	cfg     LearnConfig
	stripes []*learnStripe

	pendingRevs atomic.Int64  // LSB-visible revisions pending across stripes
	pendingObs  atomic.Int64  // observations pending across stripes
	firstAt     atomic.Uint64 // sim-time of the oldest pending observation
}

func newLearnState(cb *casebase.CaseBase, cfg LearnConfig, stripes int) *learnState {
	ls := &learnState{cfg: cfg}
	ls.firstAt.Store(noPending)
	for i := 0; i < stripes; i++ {
		d, err := learn.NewDelta(cb, cfg.Alpha)
		if err != nil {
			panic(err) // unreachable: New normalized Alpha into (0, 1]
		}
		ls.stripes = append(ls.stripes, &learnStripe{delta: d})
	}
	return ls
}

// due evaluates the fold policy against the global counters. Pending
// sub-LSB residue alone never trips a fold — it stays in the deltas
// compounding until it becomes an LSB-visible revision.
func (ls *learnState) due(now device.Micros) bool {
	revs := ls.pendingRevs.Load()
	first := ls.firstAt.Load()
	p := learn.FoldPolicy{Threshold: ls.cfg.FoldThreshold, MaxAge: ls.cfg.MaxAge}
	return p.Due(int(revs), device.Micros(first), now, revs > 0 && first != noPending)
}

// --- Mutation API ------------------------------------------------------

// Observe folds one run-time QoS measurement into the deferred
// net-commit layer. It never blocks readers: the observation lands in
// a per-stripe delta, and only when the fold policy trips does the
// caller pay for a commit (threshold reached, or pending state older
// than the configured age bound on the sim clock).
func (s *Service) Observe(o learn.Observation) error {
	if s.ls == nil {
		return ErrLearningOff
	}
	if err := s.acquire(context.Background(), s.shardFor(o.Type)); err != nil {
		return err
	}
	defer s.inflight.Done()
	st := s.ls.stripes[shardOf(o.Type, len(s.ls.stripes))]
	st.mu.Lock()
	revDelta, err := st.delta.Observe(o)
	st.mu.Unlock()
	if revDelta != 0 {
		s.ls.pendingRevs.Add(int64(revDelta))
	}
	if err != nil {
		return err
	}
	s.ls.pendingObs.Add(1)
	s.counts.observations.Inc()
	now := device.Micros(s.now.Load())
	s.ls.firstAt.CompareAndSwap(noPending, uint64(now))
	if s.ls.due(now) {
		s.commitMu.Lock()
		defer s.commitMu.Unlock()
		if !s.ls.due(device.Micros(s.now.Load())) {
			return nil // another writer committed while we waited
		}
		_, err := s.commitLocked("fold", nil, nil)
		return err
	}
	return nil
}

// Retain adds a new implementation variant to the case base through the
// commit pipeline and registers its configuration blob (sized by
// Foot.ConfigBytes) in the function repository. A zero im.ID is
// assigned the next free ID of the type; the assigned ID is returned.
// atEpoch optimistically conditions the commit: non-zero and different
// from the committed epoch fails with *ErrStaleEpoch before anything
// changes (zero commits unconditionally). Pending observation deltas
// fold into the same commit.
func (s *Service) Retain(t casebase.TypeID, im casebase.Implementation, atEpoch uint64) (casebase.ImplID, error) {
	if s.ls == nil {
		return 0, ErrLearningOff
	}
	if err := s.acquire(context.Background(), s.shardFor(t)); err != nil {
		return 0, err
	}
	defer s.inflight.Done()
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if err := s.checkEpochLocked(atEpoch); err != nil {
		return 0, err
	}
	var id casebase.ImplID
	target, cfgBytes := im.Target, im.Foot.ConfigBytes
	_, err := s.commitLocked("retain",
		func(b *learn.Builder) error {
			var err error
			id, err = b.Retain(t, im)
			return err
		},
		func() {
			// Under allocMu, atomically with the manager's case-base
			// update: a placement can never see the new variant without
			// its repository blob. A reused ID (retire then retain)
			// keeps its existing blob.
			repo := s.sys.Repository()
			if _, ok := repo.Lookup(t, id); !ok {
				_ = repo.Store(t, id, device.Blob{Target: target, Bytes: cfgBytes})
			}
		})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// Retire withdraws an implementation variant through the commit
// pipeline. atEpoch conditions the commit like Retain's. Retiring the
// last variant of a type fails validation and commits nothing (pending
// deltas survive for the next commit).
func (s *Service) Retire(t casebase.TypeID, impl casebase.ImplID, atEpoch uint64) error {
	if s.ls == nil {
		return ErrLearningOff
	}
	if err := s.acquire(context.Background(), s.shardFor(t)); err != nil {
		return err
	}
	defer s.inflight.Done()
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if err := s.checkEpochLocked(atEpoch); err != nil {
		return err
	}
	_, err := s.commitLocked("retire",
		func(b *learn.Builder) error { return b.Retire(t, impl) }, nil)
	return err
}

// CommitNow forces a commit of whatever is pending — or a pure epoch
// bump when nothing is — and returns the newly committed epoch. It is
// the manual flush for drivers that want fold points at places of
// their own choosing.
func (s *Service) CommitNow() (uint64, error) {
	if s.ls == nil {
		return 0, ErrLearningOff
	}
	if err := s.acquire(context.Background(), s.shards[0]); err != nil {
		return 0, err
	}
	defer s.inflight.Done()
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	epoch, err := s.commitLocked("manual", nil, nil)
	if err != nil {
		return 0, err
	}
	return epoch, nil
}

// Epoch returns the committed epoch (1 until the first commit).
func (s *Service) Epoch() uint64 { return s.snap.Load().epoch }

// EpochStats snapshots the mutation counters. On a service without
// learning every field but Epoch is zero.
func (s *Service) EpochStats() EpochStats {
	c := &s.counts
	st := EpochStats{
		Epoch:        s.snap.Load().epoch,
		Folds:        c.folds.Load(),
		Observations: c.observations.Load(),
		FoldedObs:    c.foldedObs.Load(),
		Retained:     c.retained.Load(),
		Retired:      c.retired.Load(),
		StaleRetries: c.staleRetries.Load(),
	}
	st.Commits = st.Folds + st.Retained + st.Retired + c.manual.Load()
	if s.ls != nil {
		st.PendingObs = s.ls.pendingObs.Load()
		st.PendingRevs = s.ls.pendingRevs.Load()
	}
	return st
}

// Journal returns a copy of the epoch journal: one line per commit
// (`epoch= t= reason= changed= folded_obs=`), in commit order. Fold
// points and epoch numbering are part of the replay contract — a
// deterministic driver replays the identical journal at any shard
// count.
func (s *Service) Journal() []string { return s.journal.Lines() }

// ReplayHash folds the epoch journal into a printable fnv64a digest —
// two runs of the same schedule must produce the same hash, bit for
// bit, no matter the shard count.
func (s *Service) ReplayHash() string { return s.journal.Hash() }

// --- Commit pipeline ---------------------------------------------------

// checkEpochLocked enforces an optimistic epoch precondition (zero
// means unconditional). Caller holds commitMu, so the check cannot race
// another commit.
func (s *Service) checkEpochLocked(atEpoch uint64) error {
	if atEpoch == 0 {
		return nil
	}
	if cur := s.snap.Load().epoch; cur != atEpoch {
		return &ErrStaleEpoch{At: atEpoch, Committed: cur}
	}
	return nil
}

// commitLocked runs one swap: fold every stripe's pending delta into a
// Builder over the old epoch's tree, apply the structural mutation (if
// any), build a validated CaseBase, install the new snapshot and rebase
// the manager in one allocMu section, rebase the stripes, and journal
// the commit. Caller holds commitMu. On any error nothing is installed
// and the stripes keep their pending state for the next attempt.
//
// post, when non-nil, runs inside that allocMu critical section right
// after the manager's case base moved — the hook for state that must
// become visible atomically with placement seeing the new epoch (e.g.
// Retain's repository blob).
func (s *Service) commitLocked(reason string, structural func(*learn.Builder) error, post func()) (uint64, error) {
	old := s.snap.Load()
	b := learn.NewBuilder(old.cb)
	// Hold every stripe across fold+swap+rebase so no observation lands
	// against the old base mid-commit and gets silently discarded.
	for _, st := range s.ls.stripes {
		st.mu.Lock()
	}
	defer func() {
		for i := len(s.ls.stripes) - 1; i >= 0; i-- {
			s.ls.stripes[i].mu.Unlock()
		}
	}()
	foldedObs := int64(0)
	for _, st := range s.ls.stripes {
		st.delta.FoldInto(b)
		foldedObs += int64(st.delta.Observations())
	}
	if structural != nil {
		if err := structural(b); err != nil {
			return old.epoch, err
		}
	}
	cb, changed, err := b.Build()
	if err != nil {
		return old.epoch, err
	}
	next := newSnapshot(old.epoch+1, cb, len(s.shards), s.cfg.Engine, s.retMet)
	// Publish the snapshot and move the manager in one allocMu section:
	// an Allocate that scored candidates against the new epoch takes
	// allocMu after loading it, so it always finds the manager there
	// too (candidates are never newer than the manager).
	s.allocMu.Lock()
	s.snap.Store(next)
	s.mgr.UpdateCaseBase(next.engine)
	s.mgrEpoch = next.epoch
	if post != nil {
		post()
	}
	s.allocMu.Unlock()
	// Rebase the stripes onto the new tree and zero the fold counters;
	// everything folded is committed, sub-LSB residue restarts from the
	// committed values by design (DESIGN.md §14).
	for _, st := range s.ls.stripes {
		st.delta.Reset(cb)
	}
	s.ls.pendingRevs.Store(0)
	s.ls.pendingObs.Store(0)
	s.ls.firstAt.Store(noPending)
	switch reason {
	case "fold":
		s.counts.folds.Inc()
	case "retain":
		s.counts.retained.Inc()
	case "retire":
		s.counts.retired.Inc()
	default:
		s.counts.manual.Inc()
	}
	s.counts.foldedObs.Add(foldedObs)
	s.met.Load().epoch.Set(int64(next.epoch))
	s.journal.Append(fmt.Sprintf("epoch=%d t=%d reason=%s changed=%d folded_obs=%d",
		next.epoch, s.now.Load(), reason, changed, foldedObs))
	return next.epoch, nil
}
