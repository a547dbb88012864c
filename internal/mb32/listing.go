package mb32

import (
	"fmt"
	"sort"
	"strings"
)

// Listing renders a program with branch targets annotated as synthetic
// labels (L<index>:), the human-readable form of a routine like the
// swret retrieval kernel.
func Listing(prog []Instr) string {
	// Collect branch targets.
	targets := map[int]bool{}
	for _, in := range prog {
		if ClassOf(in.Op) == ClassBranch && in.Op != OpRet {
			targets[int(in.Imm)] = true
		}
	}
	labels := make([]int, 0, len(targets))
	for t := range targets {
		labels = append(labels, t)
	}
	sort.Ints(labels)

	var sb strings.Builder
	for i, in := range prog {
		if targets[i] {
			fmt.Fprintf(&sb, "L%d:\n", i)
		}
		text := in.String()
		// Rewrite numeric branch targets as labels.
		if ClassOf(in.Op) == ClassBranch && in.Op != OpRet {
			if idx := strings.LastIndexByte(text, ' '); idx >= 0 {
				text = fmt.Sprintf("%s L%d", text[:idx], in.Imm)
			}
		}
		fmt.Fprintf(&sb, "\t%s\n", text)
	}
	return sb.String()
}

// Profile summarizes a CPU's retired-instruction mix after a run, for
// performance analysis of routines like the retrieval kernel.
func (c *CPU) Profile() string {
	names := [...]string{"alu", "mul", "shift", "load", "store", "branch", "halt"}
	var sb strings.Builder
	fmt.Fprintf(&sb, "retired %d instructions in %d cycles (CPI %.2f)\n",
		c.Stats.Retired, c.Cyc, float64(c.Cyc)/float64(max64(c.Stats.Retired, 1)))
	for cls, n := range c.Stats.ByClass {
		if n == 0 {
			continue
		}
		fmt.Fprintf(&sb, "  %-7s %6d (%4.1f%%)\n", names[cls], n,
			100*float64(n)/float64(c.Stats.Retired))
	}
	if c.Stats.Branches > 0 {
		fmt.Fprintf(&sb, "  taken branches: %d of %d (%.1f%%)\n",
			c.Stats.Taken, c.Stats.Branches,
			100*float64(c.Stats.Taken)/float64(c.Stats.Branches))
	}
	return sb.String()
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
