package rtl

// BRAM16 models a Virtex-II block RAM configured as a 16-bit-wide
// true-dual-port memory with synchronous reads: an address presented
// through ReadA/ReadB during one cycle yields its data on DoutA/DoutB
// after the following clock edge. The paper's retrieval unit uses two
// such BRAMs — one holding the case-base image (CB-MEM), one the request
// list (Req-MEM) — see fig. 7 and Table 2 ("BRAMS(18Kbit): 2 of 96").
//
// Port B exists for the §5 block-compact extension: fetching an
// (ID, value) pair in a single cycle through both ports. The baseline
// unit drives port A only.
type BRAM16 struct {
	mem []uint16

	doutA, doutB uint16
	addrA, addrB int
	pendA, pendB bool
	reads        uint64
}

// NewBRAM16 returns a BRAM of the given word depth preloaded with init
// (remaining words are zero, as configuration would leave them).
func NewBRAM16(depth int, init []uint16) *BRAM16 {
	b := &BRAM16{mem: make([]uint16, depth)}
	copy(b.mem, init)
	return b
}

// Depth returns the word capacity.
func (b *BRAM16) Depth() int { return len(b.mem) }

// LoadBurst overwrites memory from addr with words, modeling a host
// write burst (one word per cycle on the write port). It returns the
// number of cycles such a burst occupies. Words beyond the capacity are
// dropped, like writes past the decoded range.
func (b *BRAM16) LoadBurst(addr int, words []uint16) int {
	for i, w := range words {
		if a := addr + i; a >= 0 && a < len(b.mem) {
			b.mem[a] = w
		}
	}
	return len(words)
}

// ReadA presents addr on port A; the data appears on DoutA after the
// next clock edge. Out-of-range addresses read as zero, like an
// uninitialized BRAM word.
func (b *BRAM16) ReadA(addr int) { b.addrA = addr; b.pendA = true }

// ReadB presents addr on port B (block-compact fetch only).
func (b *BRAM16) ReadB(addr int) { b.addrB = addr; b.pendB = true }

// DoutA returns port A's registered read data.
func (b *BRAM16) DoutA() uint16 { return b.doutA }

// DoutB returns port B's registered read data.
func (b *BRAM16) DoutB() uint16 { return b.doutB }

// Reads returns the number of read-port activations, the unit for
// memory-bound cycle accounting.
func (b *BRAM16) Reads() uint64 { return b.reads }

func (b *BRAM16) at(addr int) uint16 {
	if addr < 0 || addr >= len(b.mem) {
		return 0
	}
	return b.mem[addr]
}

// Compute implements Component.
func (b *BRAM16) Compute() {}

// Commit implements Component: latch read data.
func (b *BRAM16) Commit() {
	if b.pendA {
		b.doutA = b.at(b.addrA)
		b.reads++
		b.pendA = false
	}
	if b.pendB {
		b.doutB = b.at(b.addrB)
		b.reads++
		b.pendB = false
	}
}

// Mult18 models a Virtex-II MULT18X18 dedicated multiplier with a
// registered product: operands presented during a cycle produce their
// product after the clock edge. Table 2 reports the retrieval unit uses
// two of them (d×recip and w×s, fig. 7).
type Mult18 struct {
	a, b    uint32
	p       uint64
	pending bool
	uses    uint64
}

// Set presents the operands (treated as unsigned, ≤18 bits significant;
// the retrieval datapath only multiplies non-negative quantities).
func (m *Mult18) Set(a, b uint32) {
	m.a, m.b = a&0x3FFFF, b&0x3FFFF
	m.pending = true
}

// P returns the registered product.
func (m *Mult18) P() uint64 { return m.p }

// Uses returns how many products were computed, for activity-based power
// or utilization estimates.
func (m *Mult18) Uses() uint64 { return m.uses }

// Compute implements Component.
func (m *Mult18) Compute() {}

// Commit implements Component.
func (m *Mult18) Commit() {
	if m.pending {
		m.p = uint64(m.a) * uint64(m.b)
		m.uses++
		m.pending = false
	}
}
