// Package rtsys is the run-time system underneath the allocation layer:
// it owns the system timeline, the hardware/software task lifecycles and
// the adaptive task priorities of the authors' earlier on-demand FPGA
// run-time system ("On-Demand FPGA Run-Time System for Dynamical
// Reconfiguration with Adaptive Priorities", FPL'04 — reference [7] of
// the paper), which fig. 1 shows as the "Local Run-Time Control" layer.
//
// The model is event-free discrete time: the owner advances the clock
// explicitly and the system resolves state transitions (configuration
// completing, waiting tasks aging) at each advance. That keeps the
// simulation deterministic and directly scriptable from experiments.
package rtsys

import (
	"errors"
	"fmt"
	"sort"

	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/obs"
)

// TaskID is a run-time task handle.
type TaskID int

// State is a task lifecycle state.
type State uint8

// Task lifecycle: Pending (not placed), Configuring (placed, bitstream /
// opcode loading), Running, Preempted (evicted, awaiting re-placement),
// Done, Failed (placement lost to a fault, or configuration retries
// exhausted), Recovering (configuration error or SEU hit; the placement
// is held while a bounded-backoff reconfiguration retry is scheduled).
const (
	Pending State = iota
	Configuring
	Running
	Preempted
	Done
	Failed
	Recovering
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Configuring:
		return "configuring"
	case Running:
		return "running"
	case Preempted:
		return "preempted"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Recovering:
		return "recovering"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// ErrBadTransition is the sentinel wrapped by every state-guard error,
// so callers can distinguish lifecycle misuse from device/repository
// failures with errors.Is.
var ErrBadTransition = errors.New("rtsys: invalid state transition")

// TransitionError reports a lifecycle event applied in a state that does
// not accept it.
type TransitionError struct {
	Task  TaskID
	From  State
	Event string
}

func (e *TransitionError) Error() string {
	return fmt.Sprintf("rtsys: task %d is %v, cannot %s", e.Task, e.From, e.Event)
}

// Unwrap makes errors.Is(err, ErrBadTransition) work.
func (e *TransitionError) Unwrap() error { return ErrBadTransition }

// Task is one function instantiation managed by the run-time system.
type Task struct {
	ID       TaskID
	App      string // owning application, for reports
	Type     casebase.TypeID
	Impl     casebase.ImplID
	Dev      device.ID // empty while not placed
	BasePrio int
	State    State

	Created  device.Micros
	ReadyAt  device.Micros // configuration completion time
	Started  device.Micros // first entered Running
	Finished device.Micros

	// WaitingSince tracks the start of the current Pending/Preempted
	// span, the input to priority aging.
	WaitingSince device.Micros
	Preemptions  int

	// ConfigCost is the fetch + configuration latency of the current
	// placement, remembered so a retry can recompute ReadyAt.
	ConfigCost device.Micros
	// ConfigRetries counts configuration attempts burned on the
	// current placement (reset on every fresh Place).
	ConfigRetries int
	// NextRetryAt is when a Recovering task re-enters Configuring.
	NextRetryAt device.Micros
	// Faults counts device/slot failures that stranded this task.
	Faults int
}

// Stranded reports whether a fault left the task without a placement
// it can use: Failed (a lost placement or exhausted configuration
// retries), or back in Pending after a device or slot failure. These
// are the tasks degrade-and-retry must re-place or reject.
func (t *Task) Stranded() bool {
	return t.State == Failed || t.State == Pending && t.Faults > 0
}

// Metrics aggregates system activity.
type Metrics struct {
	Created     int
	Completed   int
	Preemptions int
	// TotalWait accumulates time tasks spent Pending or Preempted.
	TotalWait device.Micros
	// TotalConfig accumulates time spent in Configuring: the
	// ConfigCost of each configuration that reached Running.
	TotalConfig device.Micros

	// Fault-path counters.
	ConfigErrors int // transient configuration errors injected
	SEUs         int // single-event upsets injected into running tasks
	Retries      int // reconfiguration retries that actually fired
	DeviceFaults int // whole-device permanent failures
	SlotFaults   int // FPGA slot permanent failures
	Stranded     int // tasks knocked off a device by a fault
	Requeued     int // stranded/failed tasks returned to the wait pool
}

// System is the run-time system instance.
type System struct {
	now     device.Micros
	devices []device.Device
	repo    *device.Repository
	// live holds the tasks that have not finished, in ID order. IDs are
	// issued in increasing order and a task only ever leaves, at
	// Complete, so appending keeps the slice sorted. Finished tasks are
	// forgotten: a handle below nextID that is not live has finished.
	live   []*Task
	nextID TaskID
	// byState counts tasks per lifecycle state (Done: every task ever
	// completed) and stranded the live tasks whose Stranded() holds;
	// setState keeps both.
	byState  [Recovering + 1]int
	stranded int
	// visits counts the tasks Walk has handed out, so tests can check
	// that a walk costs the live population, not the history.
	visits  uint64
	metrics Metrics
	met     *rtMetrics
	devObs  *device.Observer

	// AgingNumerator/AgingDenominator set the adaptive-priority boost:
	// effective priority = base + waited*num/den. The FPL'04 scheme
	// raises priorities of starved tasks so they eventually win a
	// slot. Denominator 0 disables aging.
	AgingNumerator   int
	AgingDenominator int

	// RetryBase is the first reconfiguration-retry backoff; attempt k
	// waits RetryBase<<(k-1) clock ticks, capped at RetryCeil.
	RetryBase device.Micros
	// RetryCeil bounds the exponential backoff.
	RetryCeil device.Micros
	// RetryLimit is how many configuration attempts a placement gets
	// before the task is marked Failed. Zero disables retries: the
	// first configuration error fails the task.
	RetryLimit int
}

// NewSystem builds a run-time system over the given devices and
// repository. Default aging: +1 priority level per 10 ms waited.
func NewSystem(repo *device.Repository, devs ...device.Device) *System {
	return &System{
		devices: devs, repo: repo,
		nextID:           1,
		met:              newRTMetrics(nil),
		devObs:           device.NewObserver(nil),
		AgingNumerator:   1,
		AgingDenominator: 10_000,
		RetryBase:        500,
		RetryCeil:        16_000,
		RetryLimit:       3,
	}
}

// Now returns the current simulation time.
func (s *System) Now() device.Micros { return s.now }

// Devices returns the managed devices.
func (s *System) Devices() []device.Device { return s.devices }

// Repository returns the configuration repository.
func (s *System) Repository() *device.Repository { return s.repo }

// Metrics returns a copy of the counters.
func (s *System) Metrics() Metrics { return s.metrics }

// DevicesByKind returns the devices hosting the given target class.
func (s *System) DevicesByKind(k casebase.Target) []device.Device {
	var out []device.Device
	for _, d := range s.devices {
		if d.Kind() == k {
			out = append(out, d)
		}
	}
	return out
}

// Task returns the live task with handle id. A finished (Done) task has
// left the system, so Task misses it; CompleteID tells a finished handle
// from one never issued.
func (s *System) Task(id TaskID) (*Task, bool) {
	if i := s.search(id); i < len(s.live) && s.live[i].ID == id {
		return s.live[i], true
	}
	return nil, false
}

// Tasks returns the live (not Done) tasks in ID order. The slice is the
// system's own index, not a copy: read it, and do not keep it across a
// call that creates or completes a task.
func (s *System) Tasks() []*Task { return s.live[:len(s.live):len(s.live)] }

// Walk hands the live tasks to fn in ID order until fn returns false.
// fn may complete, requeue or create tasks: a task that finishes before
// the walk reaches it is skipped, and a task created during the walk is
// not visited.
func (s *System) Walk(fn func(*Task) bool) {
	end := s.nextID
	for i := 0; i < len(s.live); {
		t := s.live[i]
		if t.ID >= end {
			return
		}
		s.visits++
		if !fn(t) {
			return
		}
		if i < len(s.live) && s.live[i] == t {
			i++
		} else {
			i = s.search(t.ID + 1)
		}
	}
}

// Count returns how many tasks are in state st; Count(Done) is every
// task ever completed.
func (s *System) Count(st State) int { return s.byState[st] }

// StrandedCount returns how many live tasks are Stranded.
func (s *System) StrandedCount() int { return s.stranded }

// CompleteID completes the live task with handle id (Complete). A
// handle the system issued whose task has already finished gets the
// error Complete gives a Done task, a *TransitionError from Done.
// issued is false, with a nil error, for a handle never issued.
func (s *System) CompleteID(id TaskID) (issued bool, err error) {
	if t, ok := s.Task(id); ok {
		return true, s.Complete(t)
	}
	if id < 1 || id >= s.nextID {
		return false, nil
	}
	return true, &TransitionError{Task: id, From: Done, Event: "complete"}
}

// search returns the index of the first live task with an ID >= id.
func (s *System) search(id TaskID) int {
	return sort.Search(len(s.live), func(i int) bool { return s.live[i].ID >= id })
}

// CreateTask registers a new pending task for a function request.
func (s *System) CreateTask(app string, ty casebase.TypeID, basePrio int) *Task {
	t := &Task{
		ID: s.nextID, App: app, Type: ty, BasePrio: basePrio,
		State: Pending, Created: s.now, WaitingSince: s.now,
	}
	s.nextID++
	s.live = append(s.live, t)
	s.byState[Pending]++
	s.metrics.Created++
	s.met.tasksByState[Pending].Add(1)
	s.met.transitions["create"].Inc()
	if s.met.enabled {
		s.met.trace.Append(obs.Event{At: int64(s.now), Kind: "create",
			Detail: fmt.Sprintf("task %d: %s type %d", t.ID, app, ty)})
	}
	return t
}

// EffectivePriority returns the task's aged priority: tasks that have
// waited longer bid higher, the FPL'04 adaptive-priority rule.
func (s *System) EffectivePriority(t *Task) int {
	p := t.BasePrio
	if s.AgingDenominator > 0 && (t.State == Pending || t.State == Preempted) {
		waited := int(s.now - t.WaitingSince)
		p += waited * s.AgingNumerator / s.AgingDenominator
	}
	return p
}

// Place commits a task onto a device with the chosen implementation.
// The ready time accounts for fetching the configuration from the
// repository and the device's own setup latency (reconfiguration port or
// program load).
func (s *System) Place(t *Task, dev device.Device, im *casebase.Implementation) error {
	if t.State != Pending && t.State != Preempted {
		return &TransitionError{Task: t.ID, From: t.State, Event: "place"}
	}
	if dev.Kind() != im.Target {
		return fmt.Errorf("rtsys: %s hosts %v, implementation targets %v", dev.Name(), dev.Kind(), im.Target)
	}
	fetch := device.Micros(0)
	if s.repo != nil {
		var err error
		fetch, err = s.repo.FetchTime(t.Type, im.ID)
		if err != nil {
			return fmt.Errorf("rtsys: fetch (%d, %d): %w", t.Type, im.ID, err)
		}
	}
	pl, err := dev.Place(int(t.ID), t.Type, im.ID, im.Foot, s.EffectivePriority(t), s.now)
	if err != nil {
		return fmt.Errorf("rtsys: place task %d on %s: %w", t.ID, dev.Name(), err)
	}
	s.metrics.TotalWait += s.now - t.WaitingSince
	s.met.waitMicros.Observe(int64(s.now - t.WaitingSince))
	t.Impl = im.ID
	t.Dev = dev.Name()
	s.setState(t, Configuring, "place")
	t.ReadyAt = pl.Ready + fetch
	t.ConfigCost = t.ReadyAt - s.now
	t.ConfigRetries = 0
	s.devSync()
	return nil
}

// Preempt evicts a running or configuring task from its device; it
// returns to the wait pool with its preemption count bumped ("it is
// possible that the best matching implementation is not currently
// feasible without preempting other active (hardware) tasks", §2).
func (s *System) Preempt(t *Task) error {
	if t.State != Running && t.State != Configuring {
		return &TransitionError{Task: t.ID, From: t.State, Event: "preempt"}
	}
	dev, err := s.deviceByName(t.Dev)
	if err != nil {
		return err
	}
	if err := dev.Remove(int(t.ID)); err != nil {
		return fmt.Errorf("rtsys: preempt task %d: %w", t.ID, err)
	}
	s.setState(t, Preempted, "preempt")
	t.Dev = ""
	t.WaitingSince = s.now
	t.Preemptions++
	s.metrics.Preemptions++
	s.devSync()
	return nil
}

// Complete finishes a task and releases its device capacity. Failed
// tasks may be completed too (the application gives up on them); their
// capacity was already released when the fault hit.
func (s *System) Complete(t *Task) error {
	switch t.State {
	case Running, Configuring, Recovering:
		dev, err := s.deviceByName(t.Dev)
		if err != nil {
			return err
		}
		if err := dev.Remove(int(t.ID)); err != nil {
			return fmt.Errorf("rtsys: complete task %d: %w", t.ID, err)
		}
	case Pending, Preempted:
		s.metrics.TotalWait += s.now - t.WaitingSince
		s.met.waitMicros.Observe(int64(s.now - t.WaitingSince))
	case Failed:
		// Nothing to release.
	default:
		return &TransitionError{Task: t.ID, From: t.State, Event: "complete"}
	}
	s.setState(t, Done, "complete")
	t.Finished = s.now
	s.metrics.Completed++
	if i := s.search(t.ID); i < len(s.live) && s.live[i] == t {
		copy(s.live[i:], s.live[i+1:])
		s.live[len(s.live)-1] = nil
		s.live = s.live[:len(s.live)-1]
	}
	s.devSync()
	return nil
}

// AdvanceTo moves the clock forward and resolves Configuring→Running
// and Recovering→Configuring(→Running) transitions whose ready/retry
// times have passed.
func (s *System) AdvanceTo(t device.Micros) error {
	if t < s.now {
		return fmt.Errorf("rtsys: cannot rewind clock from %d to %d", s.now, t)
	}
	s.now = t
	if s.byState[Configuring] == 0 && s.byState[Recovering] == 0 {
		return nil
	}
	// Resolve in task-ID order: same-tick transitions must land in the
	// trace ring identically on every replay.
	s.Walk(func(task *Task) bool {
		if task.State == Recovering && task.NextRetryAt <= s.now {
			// The retried configuration re-streams the image from
			// the repository at the original cost.
			s.setState(task, Configuring, "retry")
			task.ReadyAt = task.NextRetryAt + task.ConfigCost
			s.metrics.Retries++
		}
		if task.State == Configuring && task.ReadyAt <= s.now {
			s.setState(task, Running, "run")
			task.Started = task.ReadyAt
			s.metrics.TotalConfig += task.ConfigCost
			s.met.configMicros.Observe(int64(task.ConfigCost))
		}
		return true
	})
	return nil
}

// Advance moves the clock forward by dt.
func (s *System) Advance(dt device.Micros) error { return s.AdvanceTo(s.now + dt) }

// PowerMW returns the platform's current total power.
func (s *System) PowerMW() int {
	p := 0
	for _, d := range s.devices {
		p += d.PowerMW()
	}
	return p
}

// --- Fault path -------------------------------------------------------

// backoff returns the bounded exponential backoff for the given attempt
// number (1-based): RetryBase << (attempt-1), capped at RetryCeil.
func (s *System) backoff(attempt int) device.Micros {
	d := s.RetryBase
	if d == 0 {
		d = 1
	}
	for i := 1; i < attempt; i++ {
		d <<= 1
		if d >= s.RetryCeil && s.RetryCeil > 0 {
			return s.RetryCeil
		}
	}
	if s.RetryCeil > 0 && d > s.RetryCeil {
		d = s.RetryCeil
	}
	return d
}

// ConfigError injects a transient configuration error into a Configuring
// task: the bitstream/opcode transfer was corrupted and must be retried.
// While retry budget remains the task holds its placement and moves to
// Recovering with a bounded exponential backoff; once the budget is
// exhausted the placement is released and the task is marked Failed
// (callers re-queue it through Requeue or the allocation layer's
// degrade-and-retry policy).
func (s *System) ConfigError(t *Task) error {
	if t.State != Configuring {
		return &TransitionError{Task: t.ID, From: t.State, Event: "config-error"}
	}
	s.metrics.ConfigErrors++
	t.ConfigRetries++
	if t.ConfigRetries > s.RetryLimit {
		return s.failPlacement(t)
	}
	s.setState(t, Recovering, "config-error")
	t.NextRetryAt = s.now + s.backoff(t.ConfigRetries)
	return nil
}

// SEU injects a single-event upset into a Running task: the configuration
// memory of its region (or its opcode image) is corrupted and the task
// must be re-configured in place — scrubbing. The placement is kept; the
// task re-enters the retry path with the same bounded backoff.
func (s *System) SEU(t *Task) error {
	if t.State != Running {
		return &TransitionError{Task: t.ID, From: t.State, Event: "seu"}
	}
	s.metrics.SEUs++
	t.ConfigRetries++
	if t.ConfigRetries > s.RetryLimit {
		return s.failPlacement(t)
	}
	s.setState(t, Recovering, "seu")
	t.NextRetryAt = s.now + s.backoff(t.ConfigRetries)
	return nil
}

// failPlacement releases a task's device capacity and marks it Failed.
func (s *System) failPlacement(t *Task) error {
	if t.Dev != "" {
		dev, err := s.deviceByName(t.Dev)
		if err != nil {
			return err
		}
		if err := dev.Remove(int(t.ID)); err != nil {
			return fmt.Errorf("rtsys: fail task %d: %w", t.ID, err)
		}
	}
	s.setState(t, Failed, "fail")
	t.Dev = ""
	s.devSync()
	return nil
}

// FailDevice marks a device permanently failed. Every task placed on it
// is stranded: marked Failed, counted, and automatically re-queued to
// Pending so the allocation layer can negotiate an alternative. The
// stranded tasks are returned sorted by ID.
func (s *System) FailDevice(id device.ID) ([]*Task, error) {
	dev, err := s.deviceByName(id)
	if err != nil {
		return nil, err
	}
	s.metrics.DeviceFaults++
	s.met.deviceFaults.Inc()
	var out []*Task
	for _, pl := range dev.Fail() {
		if t := s.strand(pl.Task); t != nil {
			out = append(out, t)
		}
	}
	s.devSync()
	return out, nil
}

// FailSlot marks one slot of an FPGA permanently failed. The stranded
// task, if the slot was occupied, is failed and re-queued like in
// FailDevice and returned (nil for an empty slot).
func (s *System) FailSlot(id device.ID, slot int) (*Task, error) {
	dev, err := s.deviceByName(id)
	if err != nil {
		return nil, err
	}
	fpga, ok := dev.(*device.FPGA)
	if !ok {
		return nil, fmt.Errorf("rtsys: %s is not an FPGA, has no slots", id)
	}
	pl, err := fpga.FailSlot(slot)
	if err != nil {
		return nil, err
	}
	s.metrics.SlotFaults++
	s.met.slotFaults.Inc()
	defer s.devSync()
	if pl == nil {
		return nil, nil
	}
	return s.strand(pl.Task), nil
}

// strand records a fault-stranded task and re-queues it.
func (s *System) strand(taskHandle int) *Task {
	t, ok := s.Task(TaskID(taskHandle))
	if !ok {
		return nil
	}
	t.Faults++
	s.metrics.Stranded++
	s.setState(t, Failed, "strand")
	t.Dev = ""
	_ = s.Requeue(t)
	return t
}

// Requeue returns a Failed task to the wait pool: it becomes Pending
// again (its aged-priority clock restarting now) and will re-bid for
// capacity through the allocation layer.
func (s *System) Requeue(t *Task) error {
	if t.State != Failed {
		return &TransitionError{Task: t.ID, From: t.State, Event: "requeue"}
	}
	s.setState(t, Pending, "requeue")
	t.Dev = ""
	t.WaitingSince = s.now
	t.ConfigRetries = 0
	s.metrics.Requeued++
	return nil
}

func (s *System) deviceByName(id device.ID) (device.Device, error) {
	for _, d := range s.devices {
		if d.Name() == id {
			return d, nil
		}
	}
	return nil, fmt.Errorf("rtsys: unknown device %q", id)
}
