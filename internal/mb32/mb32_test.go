package mb32

import (
	"errors"
	"strings"
	"testing"
)

func run(t *testing.T, src string, mem int) *CPU {
	t.Helper()
	prog, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := New(prog, mem)
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return c
}

func TestALUBasics(t *testing.T) {
	c := run(t, `
		addi r1, r0, 40
		addi r2, r0, 2
		add  r3, r1, r2
		sub  r4, r1, r2
		mul  r5, r1, r2
		and  r6, r1, r2
		or   r7, r1, r2
		xor  r8, r1, r2
		halt
	`, 64)
	want := map[int]int32{3: 42, 4: 38, 5: 80, 6: 0, 7: 42, 8: 42}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("r%d = %d, want %d", r, c.Regs[r], v)
		}
	}
}

func TestR0Hardwired(t *testing.T) {
	c := run(t, `
		addi r0, r0, 99
		addi r1, r0, 7
		halt
	`, 64)
	if c.Regs[0] != 0 {
		t.Error("r0 must stay zero")
	}
	if c.Regs[1] != 7 {
		t.Error("r1 should read r0 as 0")
	}
}

func TestShifts(t *testing.T) {
	c := run(t, `
		addi r1, r0, -16
		srai r2, r1, 2
		srli r3, r1, 28
		slli r4, r1, 1
		addi r5, r0, 3
		sll  r6, r5, r5
		srl  r7, r6, r5
		sra  r8, r1, r5
		halt
	`, 64)
	if c.Regs[2] != -4 {
		t.Errorf("srai = %d", c.Regs[2])
	}
	if c.Regs[3] != 15 {
		t.Errorf("srli = %d", c.Regs[3])
	}
	if c.Regs[4] != -32 {
		t.Errorf("slli = %d", c.Regs[4])
	}
	if c.Regs[6] != 24 || c.Regs[7] != 3 || c.Regs[8] != -2 {
		t.Errorf("reg shifts = %d, %d, %d", c.Regs[6], c.Regs[7], c.Regs[8])
	}
}

func TestMemory(t *testing.T) {
	c := run(t, `
		addi r1, r0, 0x1234
		sh   r1, r0, 16
		lhu  r2, r0, 16
		addi r3, r0, -1
		sw   r3, r0, 32
		lw   r4, r0, 32
		halt
	`, 64)
	if c.Regs[2] != 0x1234 {
		t.Errorf("lhu = %#x", c.Regs[2])
	}
	if c.Regs[4] != -1 {
		t.Errorf("lw = %d", c.Regs[4])
	}
}

func TestLhuZeroExtends(t *testing.T) {
	c := run(t, `
		addi r1, r0, -2      ; 0xFFFFFFFE
		sh   r1, r0, 8       ; stores 0xFFFE
		lhu  r2, r0, 8
		halt
	`, 64)
	if c.Regs[2] != 0xFFFE {
		t.Errorf("lhu must zero-extend: %#x", c.Regs[2])
	}
}

func TestMemoryFaults(t *testing.T) {
	for _, src := range []string{
		"lhu r1, r0, 1\nhalt",   // misaligned halfword
		"lw  r1, r0, 2\nhalt",   // misaligned word
		"lhu r1, r0, 512\nhalt", // out of range
		"sh  r1, r0, -2\nhalt",  // negative
		"sw  r1, r0, 511\nhalt", // word straddles end
	} {
		prog := MustAssemble(src)
		c := New(prog, 512)
		if _, err := c.Run(10); err == nil {
			t.Errorf("no fault for %q", src)
		}
	}
}

func TestBranchesAndLoop(t *testing.T) {
	// Sum 1..10 with a counted loop.
	c := run(t, `
		addi r1, r0, 10
		addi r2, r0, 0
	loop:
		add  r2, r2, r1
		addi r1, r1, -1
		bgtz r1, loop
		halt
	`, 64)
	if c.Regs[2] != 55 {
		t.Errorf("sum = %d, want 55", c.Regs[2])
	}
	if c.Stats.Taken != 9 {
		t.Errorf("taken branches = %d, want 9", c.Stats.Taken)
	}
}

func TestAllBranchConditions(t *testing.T) {
	c := run(t, `
		addi r1, r0, -5
		addi r10, r0, 0
		bltz r1, a
		halt
	a:	addi r10, r10, 1
		bgez r1, bad
		blez r1, b
		halt
	b:	addi r10, r10, 1
		addi r1, r0, 5
		bgtz r1, c
		halt
	c:	addi r10, r10, 1
		bnez r1, d
		halt
	d:	addi r10, r10, 1
		addi r1, r0, 0
		beqz r1, e
		halt
	e:	addi r10, r10, 1
		br   out
	bad:	addi r10, r0, -1
		halt
	out:	halt
	`, 64)
	if c.Regs[10] != 5 {
		t.Errorf("branch chain executed %d legs, want 5", c.Regs[10])
	}
}

func TestCallRet(t *testing.T) {
	c := run(t, `
		addi r1, r0, 1
		call sub
		addi r1, r1, 100
		halt
	sub:	addi r1, r1, 10
		ret
	`, 64)
	if c.Regs[1] != 111 {
		t.Errorf("r1 = %d, want 111", c.Regs[1])
	}
}

func TestCycleCosts(t *testing.T) {
	// 2×ALU(1) + load(2) + store(2) + taken branch(3) + halt(1).
	c := run(t, `
		addi r1, r0, 4
		sh   r1, r0, 8
		lhu  r2, r0, 8
		addi r3, r0, 0
		br   end
	end:	halt
	`, 64)
	want := uint64(1 + 2 + 2 + 1 + 3 + 1)
	if c.Cyc != want {
		t.Errorf("cycles = %d, want %d", c.Cyc, want)
	}
	if c.Stats.Retired != 6 {
		t.Errorf("retired = %d", c.Stats.Retired)
	}
	if c.Stats.ByClass[ClassLoad] != 1 || c.Stats.ByClass[ClassStore] != 1 {
		t.Errorf("class stats = %+v", c.Stats.ByClass)
	}
}

func TestMulCost(t *testing.T) {
	c := run(t, `
		addi r1, r0, 3
		mul  r2, r1, r1
		halt
	`, 64)
	if c.Cyc != 1+3+1 {
		t.Errorf("cycles = %d", c.Cyc)
	}
}

func TestRunBudget(t *testing.T) {
	prog := MustAssemble(`
	loop:	br loop
	`)
	c := New(prog, 64)
	_, err := c.Run(100)
	if !errors.Is(err, ErrMaxInstructions) {
		t.Fatalf("want ErrMaxInstructions, got %v", err)
	}
}

func TestAssemblerErrors(t *testing.T) {
	bad := []string{
		"frobnicate r1, r2",      // unknown mnemonic
		"add r1, r2",             // wrong arity
		"addi r99, r0, 1",        // bad register
		"beqz r1, nowhere\nhalt", // undefined label
		"x: halt\nx: halt",       // duplicate label
		"addi r1, r0, bogus",     // bad immediate
		".equ\nhalt",             // malformed .equ
		"1bad: halt",             // bad label name
		"halt extra",             // operands on halt
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestEquConstants(t *testing.T) {
	c := run(t, `
		.equ BASE 0x20
		.equ COUNT 3
		addi r1, r0, BASE
		addi r2, r0, BASE+4
		addi r3, r0, COUNT
		lhu  r4, r1, BASE-24
		halt
	`, 128)
	if c.Regs[1] != 0x20 || c.Regs[2] != 0x24 || c.Regs[3] != 3 {
		t.Errorf("consts = %d, %d, %d", c.Regs[1], c.Regs[2], c.Regs[3])
	}
}

func TestInstrString(t *testing.T) {
	prog := MustAssemble(`
		add r1, r2, r3
		addi r1, r2, 5
		lhu r1, r2, 4
		sh r1, r2, 4
		beqz r1, l
	l:	br l
		call l
		ret
		nop
		halt
	`)
	for _, in := range prog {
		if s := in.String(); s == "" || strings.Contains(s, "?") {
			t.Errorf("bad render for %v: %q", in.Op, s)
		}
	}
}

func TestLoadHalfwords(t *testing.T) {
	c := New(nil, 64)
	if err := c.LoadHalfwords(4, []uint16{0xBEEF, 0x1234}); err != nil {
		t.Fatal(err)
	}
	v, err := c.loadU16(4)
	if err != nil || v != 0xBEEF {
		t.Errorf("word 0 = %#x, %v", v, err)
	}
	v, _ = c.loadU16(6)
	if v != 0x1234 {
		t.Errorf("word 1 = %#x", v)
	}
	if err := c.LoadHalfwords(62, []uint16{1, 2}); err == nil {
		t.Error("overflowing image must fail")
	}
}
