package rtl

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegHoldsAndLatches(t *testing.T) {
	r := NewReg(uint16(7))
	if r.Q() != 7 {
		t.Fatal("reset value lost")
	}
	r.Set(9)
	if r.Q() != 7 {
		t.Fatal("Set must not be visible before Commit")
	}
	r.Commit()
	if r.Q() != 9 {
		t.Fatal("Commit must latch")
	}
	// No Set this cycle → value held.
	r.Commit()
	if r.Q() != 9 {
		t.Fatal("register must hold without Set")
	}
	r.Reset(1)
	if r.Q() != 1 {
		t.Fatal("Reset must apply immediately")
	}
}

func TestSimulatorStepOrdering(t *testing.T) {
	// Two registers in a chain: b samples a's Q. After one step, b
	// must hold a's OLD value — flip-flop semantics.
	a := NewReg(uint16(1))
	b := NewReg(uint16(0))
	sim := NewSimulator()
	sim.Add(chain{a, b}, a, b)
	sim.Step()
	if b.Q() != 1 {
		t.Fatalf("b = %d, want 1 (a's previous Q)", b.Q())
	}
	if a.Q() != 2 {
		t.Fatalf("a = %d, want 2", a.Q())
	}
	if sim.Cycle() != 1 {
		t.Fatalf("cycle = %d", sim.Cycle())
	}
}

// chain drives a := a+1 and b := a every cycle.
type chain struct{ a, b *Reg[uint16] }

func (c chain) Compute() {
	c.b.Set(c.a.Q())
	c.a.Set(c.a.Q() + 1)
}
func (c chain) Commit() {}

func TestRunUntilDone(t *testing.T) {
	a := NewReg(uint16(0))
	sim := NewSimulator()
	sim.Add(incrementer{a}, a)
	n, err := sim.Run(func() bool { return a.Q() >= 10 }, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("took %d cycles, want 10", n)
	}
}

type incrementer struct{ a *Reg[uint16] }

func (i incrementer) Compute() { i.a.Set(i.a.Q() + 1) }
func (i incrementer) Commit()  {}

func TestRunMaxCycles(t *testing.T) {
	sim := NewSimulator()
	_, err := sim.Run(func() bool { return false }, 5)
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("want ErrMaxCycles, got %v", err)
	}
	if sim.Cycle() != 5 {
		t.Fatalf("cycle = %d", sim.Cycle())
	}
}

func TestBRAMSynchronousRead(t *testing.T) {
	b := NewBRAM16(8, []uint16{10, 11, 12})
	sim := NewSimulator()
	sim.Add(b)
	b.ReadA(2)
	if b.DoutA() != 0 {
		t.Fatal("read data must not appear combinationally")
	}
	sim.Step()
	if b.DoutA() != 12 {
		t.Fatalf("DoutA = %d, want 12", b.DoutA())
	}
	// Without a new read, Dout holds.
	sim.Step()
	if b.DoutA() != 12 {
		t.Fatal("DoutA must hold without a new read")
	}
	if b.Reads() != 1 {
		t.Fatalf("reads = %d", b.Reads())
	}
}

func TestBRAMDualPort(t *testing.T) {
	b := NewBRAM16(8, []uint16{1, 2, 3, 4})
	b.ReadA(0)
	b.ReadB(1)
	b.Commit()
	if b.DoutA() != 1 || b.DoutB() != 2 {
		t.Fatalf("dual read = %d,%d", b.DoutA(), b.DoutB())
	}
	if b.Reads() != 2 {
		t.Fatalf("reads = %d", b.Reads())
	}
}

func TestBRAMWrite(t *testing.T) {
	b := NewBRAM16(4, nil)
	if cycles := b.LoadBurst(2, []uint16{98, 99}); cycles != 2 {
		t.Fatalf("burst of 2 words took %d cycles", cycles)
	}
	b.ReadA(3)
	b.Commit()
	if b.DoutA() != 99 {
		t.Fatalf("read-after-write = %d", b.DoutA())
	}
	// Out-of-range accesses are safe: the word past the end is dropped.
	b.LoadBurst(3, []uint16{5, 1})
	b.ReadA(-1)
	b.Commit()
	if b.DoutA() != 0 {
		t.Fatal("out-of-range read must be 0")
	}
}

func TestBRAMDepth(t *testing.T) {
	if NewBRAM16(1024, nil).Depth() != 1024 {
		t.Fatal("depth")
	}
}

func TestMult18Registered(t *testing.T) {
	m := &Mult18{}
	m.Set(300, 70)
	if m.P() != 0 {
		t.Fatal("product must be registered, not combinational")
	}
	m.Commit()
	if m.P() != 21000 {
		t.Fatalf("P = %d", m.P())
	}
	if m.Uses() != 1 {
		t.Fatal("uses")
	}
	// Operands are masked to 18 bits.
	m.Set(1<<20|3, 2)
	m.Commit()
	if m.P() != 6 {
		t.Fatalf("masked P = %d, want 6", m.P())
	}
}

// Property: a BRAM read always returns the value most recently written
// (or the init value), never a torn or stale word.
func TestBRAMReadAfterWriteProperty(t *testing.T) {
	f := func(ops []struct {
		Addr uint8
		Val  uint16
	}) bool {
		b := NewBRAM16(256, nil)
		shadow := make([]uint16, 256)
		for _, op := range ops {
			b.LoadBurst(int(op.Addr), []uint16{op.Val})
			shadow[op.Addr] = op.Val
			b.ReadA(int(op.Addr))
			b.Commit()
			if b.DoutA() != shadow[op.Addr] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTraceRecordsChangesOnly(t *testing.T) {
	tr := NewTrace()
	tr.Sample(0, "state", 1)
	tr.Sample(1, "state", 1) // no change
	tr.Sample(2, "state", 2)
	tr.Sample(2, "acc", 7)
	if tr.Len() != 3 {
		t.Fatalf("events = %d, want 3", tr.Len())
	}
	if got := tr.Signals(); len(got) != 2 || got[0] != "acc" || got[1] != "state" {
		t.Fatalf("signals = %v", got)
	}
	s := tr.String()
	if !strings.Contains(s, "@2 state=2") || !strings.Contains(s, "@0 state=1") {
		t.Fatalf("trace dump = %q", s)
	}
}

func TestTraceLimit(t *testing.T) {
	tr := NewTrace()
	tr.Limit = 4
	for i := 0; i < 10; i++ {
		tr.Sample(uint64(i), "x", uint64(i))
	}
	if tr.Len() != 4 {
		t.Fatalf("limited trace holds %d events", tr.Len())
	}
	if tr.Events()[0].Value != 6 {
		t.Fatalf("oldest kept event = %+v", tr.Events()[0])
	}
}
