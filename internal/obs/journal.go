package obs

import (
	"fmt"
	"hash"
	"hash/fnv"
	"sync"
)

// Journal is an append-only replay log: the ordered lines a
// deterministic run writes as its witness. Each line is folded into a
// running fnv64a digest (line bytes, then a newline) as it is appended,
// so Hash costs the same however long the journal has grown. Safe for
// concurrent use.
type Journal struct {
	mu    sync.Mutex
	lines []string
	sum   hash.Hash64
}

// NewJournal returns an empty journal.
func NewJournal() *Journal { return &Journal{sum: fnv.New64a()} }

// Append adds one line to the end of the journal.
func (j *Journal) Append(line string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.lines = append(j.lines, line)
	_, _ = j.sum.Write([]byte(line))
	_, _ = j.sum.Write([]byte{'\n'})
}

// Lines returns a copy of the journal, oldest line first.
func (j *Journal) Lines() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.lines...)
}

// Hash returns the printable digest of every line appended so far,
// "fnv64a:" and 16 hex digits: two runs that journal the same lines
// hash the same, bit for bit.
func (j *Journal) Hash() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return fmt.Sprintf("fnv64a:%016x", j.sum.Sum64())
}
