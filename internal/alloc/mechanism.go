package alloc

// The mechanism half of the policy/mechanism split (DESIGN.md §13).
// Mechanism owns every interaction with the case base, the run-time
// system and the devices. It answers the allocation questions — which
// victim, which waiting task, which target classes are dead, which
// power-ranked order — by snapshotting the runtime into plain data and
// calling the pure policy function, so callers get a task or a list
// back, never parallel slices to index. It also executes the
// placements, re-placements and stranded-task sweeps policy decides.
// Manager and the fleet (one Mechanism per node) both compose it; each
// keeps only its own booking.

import (
	"fmt"

	"qosalloc/internal/alloc/policy"
	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/rtsys"
)

// UnknownTypeError reports a request for a function type the case base
// does not hold.
type UnknownTypeError struct{ Type casebase.TypeID }

func (e *UnknownTypeError) Error() string {
	return fmt.Sprintf("alloc: unknown function type %d", e.Type)
}

// UnknownImplError reports a reference to an implementation variant the
// function type does not offer.
type UnknownImplError struct {
	Type casebase.TypeID
	Impl casebase.ImplID
}

func (e *UnknownImplError) Error() string {
	return fmt.Sprintf("alloc: type %d has no implementation %d", e.Type, e.Impl)
}

// Mechanism executes allocation decisions against one node's case base
// and run-time system. It holds no policy state: no options, no
// counters, no token cache — those stay in Manager (or the fleet). A
// Mechanism over a nil system serves ImplOf and RankForPower only.
type Mechanism struct {
	cb  *casebase.CaseBase
	sys *rtsys.System
}

// NewMechanism builds the execution layer over a case base and runtime.
func NewMechanism(cb *casebase.CaseBase, sys *rtsys.System) *Mechanism {
	return &Mechanism{cb: cb, sys: sys}
}

// ImplOf resolves an implementation record.
func (x *Mechanism) ImplOf(ty casebase.TypeID, id casebase.ImplID) (*casebase.Implementation, error) {
	ft, ok := x.cb.Type(ty)
	if !ok {
		return nil, &UnknownTypeError{Type: ty}
	}
	im, ok := ft.Impl(id)
	if !ok {
		return nil, &UnknownImplError{Type: ty, Impl: id}
	}
	return im, nil
}

// RankForPower re-orders candidates in place by the power-discounted
// score S - weight·(PowerMW/1000), the §1 energy/power-efficiency
// trade: the mechanism resolves each candidate's power figure and
// policy.PowerOrder decides the order. A candidate whose record does
// not resolve is ranked by similarity alone. A no-op at weight 0.
func (x *Mechanism) RankForPower(ty casebase.TypeID, candidates []retrieval.Result, weight float64) {
	if weight == 0 {
		return
	}
	sims := make([]float64, len(candidates))
	power := make([]int, len(candidates))
	for i, r := range candidates {
		sims[i] = r.Similarity
		power[i] = policy.PowerUnknown
		if im, err := x.ImplOf(ty, r.Impl); err == nil {
			power[i] = im.Foot.PowerMW
		}
	}
	order := policy.PowerOrder(sims, power, weight)
	reordered := make([]retrieval.Result, len(candidates))
	for i, j := range order {
		reordered[i] = candidates[j]
	}
	copy(candidates, reordered)
}

// TryPlace creates a task for app and places im on the first device of
// its target class with free capacity. When Place fails after CanPlace
// passed (capacity raced away, repository miss), the tentative task is
// completed and the walk continues.
func (x *Mechanism) TryPlace(app string, ty casebase.TypeID, im *casebase.Implementation, basePrio int) (*rtsys.Task, device.Device, error) {
	var lastErr error
	for _, dev := range x.sys.DevicesByKind(im.Target) {
		if !dev.CanPlace(im.Foot) {
			continue
		}
		task := x.sys.CreateTask(app, ty, basePrio)
		if err := x.sys.Place(task, dev, im); err != nil {
			lastErr = err
			_ = x.sys.Complete(task)
			continue
		}
		return task, dev, nil
	}
	if lastErr != nil {
		return nil, nil, fmt.Errorf("alloc: no %v device has capacity for impl %d: %w", im.Target, im.ID, lastErr)
	}
	return nil, nil, fmt.Errorf("alloc: no %v device has capacity for impl %d", im.Target, im.ID)
}

// PlaceExisting places an already-created (re-queued or preempted)
// task on the first device of im's target class with free capacity,
// reporting which device took it.
func (x *Mechanism) PlaceExisting(t *rtsys.Task, im *casebase.Implementation) (device.Device, bool) {
	for _, dev := range x.sys.DevicesByKind(im.Target) {
		if !dev.CanPlace(im.Foot) {
			continue
		}
		if err := x.sys.Place(t, dev, im); err != nil {
			continue
		}
		return dev, true
	}
	return nil, false
}

// Reseat is the re-placement walk of degrade-and-retry: it places the
// re-queued task t on the first candidate, best first, whose record
// resolves and whose target class is not excluded. tried lists the
// candidates it examined, best first; on success the last one is the
// variant placed, im its record and dev the device that took it. dev is
// nil when nothing fit.
func (x *Mechanism) Reseat(t *rtsys.Task, ty casebase.TypeID, candidates []retrieval.Result, excluded []casebase.Target) (tried []retrieval.Result, im *casebase.Implementation, dev device.Device) {
	for _, cand := range candidates {
		im, err := x.ImplOf(ty, cand.Impl)
		if err != nil || policy.TargetExcluded(excluded, im.Target) {
			continue
		}
		tried = append(tried, cand)
		if dev, ok := x.PlaceExisting(t, im); ok {
			return tried, im, dev
		}
	}
	return tried, nil, nil
}

// SweepStranded hands every fault-stranded task (rtsys.Task.Stranded) to
// fn, in task-handle order, re-queueing a Failed task first. Each task
// is requeued and handed to fn before the next is looked at, so the
// run-time trace interleaves the two per task. fn may complete the task.
// With nothing stranded it returns without walking the tasks.
func (x *Mechanism) SweepStranded(fn func(*rtsys.Task)) {
	if x.sys.StrandedCount() == 0 {
		return
	}
	x.sys.Walk(func(t *rtsys.Task) bool {
		if !t.Stranded() {
			return true
		}
		if t.State == rtsys.Failed && x.sys.Requeue(t) != nil {
			return true
		}
		fn(t)
		return true
	})
}

// LowestVictim returns the task to preempt on dev for a requester at
// prio: of the tasks Running or Configuring there, the one with the
// lowest effective (aged) priority, provided it is strictly below prio
// (policy.LowestVictim, ties to the lowest task handle). nil means no
// occupant qualifies.
func (x *Mechanism) LowestVictim(dev device.Device, prio int) *rtsys.Task {
	var occ []policy.Occupant
	var tasks []*rtsys.Task
	for _, pl := range dev.Placements() {
		t, ok := x.sys.Task(rtsys.TaskID(pl.Task))
		if !ok || (t.State != rtsys.Running && t.State != rtsys.Configuring) {
			continue
		}
		occ = append(occ, policy.Occupant{Task: pl.Task, Prio: x.sys.EffectivePriority(t)})
		tasks = append(tasks, t)
	}
	if i, ok := policy.LowestVictim(occ, prio); ok {
		return tasks[i]
	}
	return nil
}

// BestWaiting returns the preempted task to re-place first: the highest
// effective priority, ties to the lowest task handle
// (policy.BestWaiting). nil means no task is waiting.
func (x *Mechanism) BestWaiting() *rtsys.Task {
	if x.sys.Count(rtsys.Preempted) == 0 {
		return nil
	}
	// Fold the waiting tasks pairwise, the best so far against the next
	// in handle order: the policy keeps the earlier on a tie, so the fold
	// picks what it would from the whole list, without building one.
	var best *rtsys.Task
	var pair [2]policy.Occupant
	x.sys.Walk(func(t *rtsys.Task) bool {
		if t.State != rtsys.Preempted {
			return true
		}
		pair[1] = policy.Occupant{Task: int(t.ID), Prio: x.sys.EffectivePriority(t)}
		if best == nil {
			best, pair[0] = t, pair[1]
		} else if i, _ := policy.BestWaiting(pair[:]); i == 1 {
			best, pair[0] = t, pair[1]
		}
		return true
	})
	return best
}

// ExcludedTargets returns the target classes present on the platform
// with no device left accepting work — the failed targets a
// degrade-and-retry retrieval excludes (policy.ExcludedTargets).
func (x *Mechanism) ExcludedTargets() []casebase.Target {
	seen := make(map[casebase.Target]bool)
	alive := make(map[casebase.Target]bool)
	for _, d := range x.sys.Devices() {
		seen[d.Kind()] = true
		if d.Health() != device.Failed {
			alive[d.Kind()] = true
		}
	}
	return policy.ExcludedTargets(seen, alive)
}

// View reduces the node to the plain-integer snapshot policy.RankNodes
// scores: surviving capacity, health, and queue pressure.
func (x *Mechanism) View(name string) policy.NodeView {
	v := policy.NodeView{Name: name, Failed: true}
	for _, d := range x.sys.Devices() {
		h := d.Health()
		if h != device.Failed {
			v.Failed = false
		}
		if h == device.Degraded {
			v.Degraded = true
		}
		switch dev := d.(type) {
		case *device.FPGA:
			if h == device.Failed {
				v.Degraded = true
				continue
			}
			v.FreeSlots += dev.FreeSlots()
		case *device.Processor:
			if h == device.Failed {
				v.Degraded = true
				continue
			}
			if free := dev.LoadCapacity - dev.Load(); free > 0 {
				v.FreeLoadPermille += free
			}
		default:
			if h == device.Failed {
				v.Degraded = true
			}
		}
	}
	v.Waiting = x.sys.Count(rtsys.Pending) + x.sys.Count(rtsys.Preempted)
	return v
}
