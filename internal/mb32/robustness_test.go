package mb32

import (
	"math/rand"
	"testing"
)

// TestRandomProgramsNeverPanic is failure injection at the instruction
// level: arbitrary instructions — any 6-bit opcode, any registers, any
// 16-bit immediate — executed must either retire, fault with an error,
// or exhaust the budget — never panic or corrupt the simulator.
func TestRandomProgramsNeverPanic(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 400; trial++ {
		prog := make([]Instr, 1+r.Intn(64))
		for i := range prog {
			prog[i] = Instr{
				Op: Op(r.Intn(64)),
				Rd: uint8(r.Intn(32)), Ra: uint8(r.Intn(32)), Rb: uint8(r.Intn(32)),
				Imm: int32(int16(r.Uint32())),
			}
		}
		c := New(prog, 256)
		_, _ = c.Run(5_000) // any outcome but a panic is acceptable
	}
}

// TestPCOutOfRangeFaults: falling off the end of the program is an
// error, not a crash.
func TestPCOutOfRangeFaults(t *testing.T) {
	c := New(MustAssemble("nop"), 64)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err == nil {
		t.Error("PC past the program must fault")
	}
}

// TestStepAfterHaltIsIdempotent: stepping a halted CPU does nothing.
func TestStepAfterHaltIsIdempotent(t *testing.T) {
	c := New(MustAssemble("halt"), 64)
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	cyc := c.Cyc
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if c.Cyc != cyc {
		t.Error("halted CPU must not consume cycles")
	}
}

// TestWildJumpFaults: a branch to a negative or huge target faults on
// the next step.
func TestWildJumpFaults(t *testing.T) {
	prog := []Instr{{Op: OpBr, Imm: -5}}
	c := New(prog, 64)
	if err := c.Step(); err != nil {
		t.Fatal(err) // the branch itself retires
	}
	if err := c.Step(); err == nil {
		t.Error("negative PC must fault")
	}
}
