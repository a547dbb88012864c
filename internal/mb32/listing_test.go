package mb32

import (
	"strings"
	"testing"
)

func TestListingLabels(t *testing.T) {
	prog := MustAssemble(`
		addi r1, r0, 3
	loop:	addi r1, r1, -1
		bgtz r1, loop
		halt
	`)
	out := Listing(prog)
	if !strings.Contains(out, "L1:") {
		t.Errorf("listing missing label:\n%s", out)
	}
	if !strings.Contains(out, "bgtz r1, L1") {
		t.Errorf("branch not rewritten to label:\n%s", out)
	}
}

func TestProfile(t *testing.T) {
	c := New(MustAssemble(`
		addi r1, r0, 3
	loop:	addi r1, r1, -1
		sh   r1, r0, 8
		lhu  r2, r0, 8
		bgtz r1, loop
		halt
	`), 64)
	if _, err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	p := c.Profile()
	for _, want := range []string{"retired", "CPI", "alu", "load", "store", "branch", "taken branches"} {
		if !strings.Contains(p, want) {
			t.Errorf("profile missing %q:\n%s", want, p)
		}
	}
}

func TestListingOfRetrievalKernelIsStable(t *testing.T) {
	// The swret kernel must produce a listing without panicking and
	// with every branch resolvable; exercised here via a local copy of
	// the grammar shapes it uses.
	prog := MustAssemble(`
	start:	lhu r3, r21, 0
	scan:	lhu r6, r5, 0
		beqz r6, fail
		sub r22, r6, r3
		beqz r22, found
		addi r5, r5, 4
		br scan
	found:	halt
	fail:	halt
	`)
	out := Listing(prog)
	if strings.Count(out, "L") < 3 {
		t.Errorf("expected several labels:\n%s", out)
	}
}
