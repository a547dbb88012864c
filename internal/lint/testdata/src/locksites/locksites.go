// Package locksites exercises locklint: the declared hierarchy below
// mirrors the serve package's (commit → stripes → shards → alloc), and
// the cases cover ordered acquisition, direct and cross-function
// inversions, TryLock/TryRLock attempts, deferred and method-value
// unlocks, unmatched unlocks, and mutex-by-value copies.
package locksites

import "sync"

//qosvet:lockorder commitMu < stripe.mu < shard.mu < allocMu

type stripe struct{ mu sync.Mutex }

type shard struct{ mu sync.Mutex }

// Service owns the ranked locks.
type Service struct {
	commitMu sync.Mutex
	stripes  []stripe
	shards   []shard
	allocMu  sync.Mutex
}

func sinkStripe(p *stripe) {}

// Ordered walks the full hierarchy in declared order: clean.
func (s *Service) Ordered() {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
	}
	defer func() {
		for i := range s.stripes {
			s.stripes[i].mu.Unlock()
		}
	}()
	s.shards[0].mu.Lock()
	s.allocMu.Lock()
	s.allocMu.Unlock()
	s.shards[0].mu.Unlock()
}

// StripesInOrder takes equal-rank instances while one is already held:
// sanctioned (the index-order discipline ranks cannot express).
func (s *Service) StripesInOrder() {
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
	}
	for i := range s.stripes {
		s.stripes[i].mu.Unlock()
	}
}

// Inverted acquires the outermost lock while holding the innermost.
func (s *Service) Inverted() {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	s.commitMu.Lock() // want `locklint: .*acquires "commitMu" \(rank 0\) while holding "allocMu" \(rank 3\)`
	s.commitMu.Unlock()
}

// lockCommit is the helper the cross-function case calls through.
func (s *Service) lockCommit() {
	s.commitMu.Lock()
	s.commitMu.Unlock()
}

// CrossFunction holds a shard mutex and calls a function whose
// acquisition summary includes the earlier-ranked commitMu.
func (s *Service) CrossFunction() {
	s.shards[0].mu.Lock()
	defer s.shards[0].mu.Unlock()
	s.lockCommit() // want `locklint: call to lockCommit acquires "commitMu" \(rank 0\) while holding "shard\.mu" \(rank 2\)`
}

// TryShard is the inline-answer shape: a failed attempt returns, so
// the deferred unlock runs only with the lock held, and allocMu nests
// inside it in declared order. Clean.
func (s *Service) TryShard() bool {
	if !s.shards[0].mu.TryLock() {
		return false
	}
	defer s.shards[0].mu.Unlock()
	s.allocMu.Lock()
	s.allocMu.Unlock()
	return true
}

// TryUnderAlloc attempts a shard mutex while holding allocMu: an
// attempt is an acquisition, checked against the order like Lock.
func (s *Service) TryUnderAlloc() {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	if s.shards[0].mu.TryLock() { // want `locklint: shard\.mu\.TryLock acquires "shard\.mu" \(rank 2\) while holding "allocMu" \(rank 3\)`
		s.shards[0].mu.Unlock()
	}
}

// DeferMethodValue binds the unlock as a method value: still matched.
func (s *Service) DeferMethodValue() {
	s.allocMu.Lock()
	u := s.allocMu.Unlock
	defer u()
}

// DeferWithoutLock defers an unlock of a mutex this function never
// takes.
func (s *Service) DeferWithoutLock() {
	defer s.allocMu.Unlock() // want `locklint: deferred Service\.allocMu\.Unlock without a matching Lock in this function`
}

// UnlockTwice releases once per path, then once more.
func (s *Service) UnlockTwice(cond bool) {
	s.allocMu.Lock()
	if cond {
		s.allocMu.Unlock()
		return
	}
	s.allocMu.Unlock()
	s.allocMu.Unlock() // want `locklint: Service\.allocMu\.Unlock without a matching Lock on this path`
}

// ConditionalHold only sometimes locks: the unlock on the may-held
// path is accepted (no false positive).
func (s *Service) ConditionalHold(cond bool) {
	if cond {
		s.allocMu.Lock()
	}
	if cond {
		s.allocMu.Unlock()
	}
}

// Registry pins read-lock tracking: RUnlock matches RLock, not Lock.
type Registry struct {
	mu sync.RWMutex
}

// ReadThenWrite unlocks in write mode while holding only a read lock.
func (r *Registry) ReadThenWrite() {
	r.mu.RLock()
	r.mu.Unlock() // want `locklint: Registry\.mu\.Unlock without a matching Lock on this path`
	r.mu.RUnlock()
}

// TryRead holds the read lock past a successful TryRLock: the deferred
// RUnlock matches it.
func (r *Registry) TryRead() bool {
	if !r.mu.TryRLock() {
		return false
	}
	defer r.mu.RUnlock()
	return true
}

// GoBodyIsFresh: goroutine bodies are separate locking scopes; locks
// held at the go statement do not leak into the body's held set.
func (s *Service) GoBodyIsFresh(done chan struct{}) {
	s.allocMu.Lock()
	go func() {
		s.commitMu.Lock()
		s.commitMu.Unlock()
		<-done
	}()
	s.allocMu.Unlock()
}

// PointerUseIsFine: pointers share the lock rather than copying it.
func PointerUseIsFine(s *Service) {
	st := &s.stripes[0]
	st.mu.Lock()
	st.mu.Unlock()
}

// CopyByValue forks every mutex in the Service.
func CopyByValue(s Service) {} // want `locklint: parameter passes lock by value`

// CopyAssign duplicates a live stripe.
func CopyAssign(s *Service) {
	st := s.stripes[0] // want `locklint: assignment copies lock value`
	sinkStripe(&st)
}

// RangeCopy copies a stripe per iteration.
func RangeCopy(s *Service) {
	for _, st := range s.stripes { // want `locklint: range copies lock value`
		sinkStripe(&st)
	}
}
