// Package sync is a minimal stand-in for the real sync package so
// locklint/leaklint fixtures typecheck hermetically. Only the identity
// of the named types and their method sets matter to the analyzers;
// the bodies are deliberately inert.
package sync

// Mutex is a stand-in mutual exclusion lock.
type Mutex struct{ state int32 }

func (m *Mutex) Lock()         {}
func (m *Mutex) Unlock()       {}
func (m *Mutex) TryLock() bool { return true }

// RWMutex is a stand-in reader/writer lock.
type RWMutex struct{ state int32 }

func (rw *RWMutex) Lock()          {}
func (rw *RWMutex) Unlock()        {}
func (rw *RWMutex) RLock()         {}
func (rw *RWMutex) RUnlock()       {}
func (rw *RWMutex) TryLock() bool  { return true }
func (rw *RWMutex) TryRLock() bool { return true }

// WaitGroup is a stand-in goroutine counter.
type WaitGroup struct{ n int32 }

func (wg *WaitGroup) Add(delta int) {}
func (wg *WaitGroup) Done()         {}
func (wg *WaitGroup) Wait()         {}
