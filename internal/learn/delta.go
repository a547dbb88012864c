package learn

// Deferred net-commit accumulation (DESIGN.md §14). High-frequency
// run-time observations must never serialize readers of the committed
// case base, so each writer folds its measurements into a volatile
// Delta first: per-(type, impl, attribute) EWMA state kept entirely off
// the read path. The deltas flow into a committed snapshot only when a
// FoldPolicy trips — enough pending LSB-visible revisions to matter, or
// pending state old enough that it must not stay invisible — at which
// point the committer drains every Delta into a Builder, rebuilds, and
// swaps the published snapshot in one unit.
//
// The fold quantizes each pending value to the attribute LSB (the
// 16-bit datapath grid); sub-LSB EWMA residue is deliberately discarded
// and the next accumulation round seeds from the committed value. That
// keeps a replay a pure function of the observation schedule and the
// fold points, independent of how many writer stripes the deltas were
// spread across: every (type, impl, attribute) key's state is key-local,
// so striping changes only who holds the state, never its value.

import (
	"fmt"
	"math"
	"slices"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
)

// FoldPolicy decides when accumulated deltas must fold into a committed
// snapshot.
type FoldPolicy struct {
	// Threshold trips a fold once the pending LSB-visible revision
	// count — attribute values whose rounded pending state differs from
	// the committed case base — reaches it. Zero or negative disables
	// the magnitude trigger.
	Threshold int
	// MaxAge trips a fold once the oldest pending observation is at
	// least this old on the sim clock, so a trickle of observations
	// cannot stay invisible forever. Zero disables the age trigger.
	MaxAge device.Micros
}

// Due reports whether the policy requires a fold given the pending
// revision count and the sim-time of the oldest pending observation
// (hasPending=false means the delta layer is empty: never due).
func (p FoldPolicy) Due(pendingRevs int, firstAt, now device.Micros, hasPending bool) bool {
	if !hasPending {
		return false
	}
	if p.Threshold > 0 && pendingRevs >= p.Threshold {
		return true
	}
	return p.MaxAge > 0 && now >= firstAt && now-firstAt >= p.MaxAge
}

// Delta is one writer's volatile observation accumulator over a
// committed case base. It is not safe for concurrent use; each writer
// stripe owns one Delta behind its own mutex. Readers of the committed
// snapshot never touch it.
type Delta struct {
	base  *casebase.CaseBase
	alpha float64

	pending map[pendKey]float64 // EWMA state, clamped to design bounds
	obs     int
}

// pendKey names one attribute of one variant.
type pendKey struct {
	k  implKey
	id attr.ID
}

// NewDelta returns an empty delta over the committed base with EWMA
// weight alpha in (0, 1].
func NewDelta(base *casebase.CaseBase, alpha float64) (*Delta, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("learn: alpha %v outside (0, 1]", alpha)
	}
	return &Delta{
		base: base, alpha: alpha,
		pending: make(map[pendKey]float64),
	}, nil
}

// Observations returns how many observations are pending in this delta.
func (d *Delta) Observations() int { return d.obs }

// Observe folds one measurement into the pending EWMA state, seeded
// from the committed value or this delta's own state and clamped into
// the design-global bounds so the supplemental table's dmax stays an
// upper bound. Attributes the case does not describe are ignored
// (retaining new attributes would change the request vocabulary, a
// design-time decision). It returns the change in the LSB-visible
// revision count: +1 for every attribute whose rounded pending value
// just started differing from the committed value, -1 for every one
// that just drifted back onto it — so a caller can maintain a global
// pending count across stripes without scanning them.
func (d *Delta) Observe(o Observation) (revDelta int, err error) {
	ft, ok := d.base.Type(o.Type)
	if !ok {
		return 0, fmt.Errorf("learn: observation for unknown type %d", o.Type)
	}
	im, ok := ft.Impl(o.Impl)
	if !ok {
		return 0, fmt.Errorf("learn: observation for unknown impl %d of type %d", o.Impl, o.Type)
	}
	k := implKey{o.Type, o.Impl}
	for _, p := range o.Measured {
		def, ok := d.base.Registry().Lookup(p.ID)
		if !ok {
			return revDelta, fmt.Errorf("learn: observation references unknown attribute %d", p.ID)
		}
		committed, has := im.Attr(p.ID)
		if !has {
			continue // case does not describe this attribute
		}
		pk := pendKey{k, p.ID}
		cur := float64(committed)
		if v, ok := d.pending[pk]; ok {
			cur = v
		}
		next := (1-d.alpha)*cur + d.alpha*float64(p.Value)
		next = math.Max(float64(def.Lo), math.Min(float64(def.Hi), next))
		wasDirty := uint16(math.Round(cur)) != uint16(committed)
		nowDirty := uint16(math.Round(next)) != uint16(committed)
		d.pending[pk] = next
		if nowDirty && !wasDirty {
			revDelta++
		} else if !nowDirty && wasDirty {
			revDelta--
		}
	}
	d.obs++
	return revDelta, nil
}

// FoldInto drains the pending state into b, a Builder over the same
// committed base: each pending value is quantized to the attribute LSB
// and staged as the key's new stored value, replacing it outright (the
// delta already did the EWMA). Sub-LSB residue is dropped by design (see
// the package comment above). Every key is written independently, so
// the result does not depend on map iteration or stripe assignment. The
// delta itself is not cleared — call Reset against the newly committed
// base once the swap has landed.
func (d *Delta) FoldInto(b *Builder) {
	b.revised = slices.Grow(b.revised, len(d.pending))
	for pk, v := range d.pending {
		b.revise(pk.k, pk.id, attr.Value(math.Round(v)))
	}
}

// Reset clears the delta and rebases it onto a newly committed case
// base. Pending state not folded first is discarded.
func (d *Delta) Reset(base *casebase.CaseBase) {
	d.base = base
	clear(d.pending)
	d.obs = 0
}
