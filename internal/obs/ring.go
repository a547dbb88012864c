package obs

import "sync"

// Event is one entry of an event-trace ring. At is a caller-supplied
// timestamp: simulation microseconds in deterministic runs, wall-clock
// nanoseconds under real load — the ring itself never reads a clock.
type Event struct {
	At     int64  `json:"at"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// Ring is a bounded event trace: the newest Cap events are retained,
// older ones are overwritten. Total keeps counting past the capacity so
// readers can tell how much history was shed.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total uint64
}

// NewRing returns a ring retaining up to capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Append records one event, evicting the oldest when full.
func (r *Ring) Append(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
}

// Events returns the retained events oldest-first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Total returns how many events were ever appended (≥ len(Events())).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
