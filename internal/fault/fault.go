// Package fault is a deterministic fault injector for the rtsys
// timeline. Real reconfigurable platforms lose FPGA regions to
// configuration-port defects, see transient bitstream-transfer errors,
// and take SEU hits in configuration memory; the paper's allocation
// layer is explicitly negotiation-based ("an alternative implementation
// can be offered to the calling application", §2), so the system must
// survive these faults by re-placing or degrading work, never by
// silently dropping it.
//
// Faults are scripted, not sampled at run time: a Plan is a list of
// (time, kind, target) events, written by hand, parsed from the compact
// DSL ("at:kind:device[:slot]", ';'-separated), or generated from an
// explicit *rand.Rand by Storm. No wall clock and no global rand are
// consulted anywhere, so a fault sweep replays bit-identically for a
// fixed seed.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"qosalloc/internal/device"
	"qosalloc/internal/obs"
	"qosalloc/internal/rtsys"
)

// Kind classifies one injected fault.
type Kind uint8

// Fault kinds: SlotFail permanently kills one FPGA slot, DeviceFail a
// whole device, ConfigError corrupts an in-flight configuration
// (transient; the run-time system retries with backoff), SEU flips
// configuration memory under a running task (recovered by scrubbing).
const (
	SlotFail Kind = iota
	DeviceFail
	ConfigError
	SEU
)

var kindNames = map[Kind]string{
	SlotFail: "slotfail", DeviceFail: "devfail", ConfigError: "configerr", SEU: "seu",
}

var kindByName = map[string]Kind{
	"slotfail": SlotFail, "devfail": DeviceFail, "configerr": ConfigError, "seu": SEU,
}

// String returns the DSL name of the kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one scripted fault.
type Event struct {
	At     device.Micros
	Kind   Kind
	Device device.ID
	Slot   int // SlotFail only
}

// String renders the event in the plan DSL.
func (e Event) String() string {
	if e.Kind == SlotFail {
		return fmt.Sprintf("%d:%s:%s:%d", e.At, e.Kind, e.Device, e.Slot)
	}
	return fmt.Sprintf("%d:%s:%s", e.At, e.Kind, e.Device)
}

// Plan is a fault schedule. Events need not be pre-sorted; the injector
// orders them by time (stable, so same-time events keep plan order).
type Plan struct {
	Events []Event
}

// String renders the plan in the DSL accepted by ParsePlan.
func (p Plan) String() string {
	parts := make([]string, len(p.Events))
	for i, e := range p.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ";")
}

// ParsePlan parses the fault-plan DSL: ';'-separated events of the form
// "at:kind:device" or "at:slotfail:device:slot", e.g.
//
//	"5000:slotfail:fpga0:1;9000:configerr:fpga0;40000:devfail:dsp0"
//
// An empty string is a valid empty plan.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 3 {
			return Plan{}, fmt.Errorf("fault: event %q: want at:kind:device[:slot]", part)
		}
		at, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return Plan{}, fmt.Errorf("fault: event %q: bad time: %w", part, err)
		}
		kind, ok := kindByName[fields[1]]
		if !ok {
			return Plan{}, fmt.Errorf("fault: event %q: unknown kind %q", part, fields[1])
		}
		e := Event{At: device.Micros(at), Kind: kind, Device: device.ID(fields[2])}
		switch {
		case kind == SlotFail:
			if len(fields) != 4 {
				return Plan{}, fmt.Errorf("fault: event %q: slotfail needs a slot index", part)
			}
			slot, err := strconv.Atoi(fields[3])
			if err != nil {
				return Plan{}, fmt.Errorf("fault: event %q: bad slot: %w", part, err)
			}
			e.Slot = slot
		case len(fields) != 3:
			return Plan{}, fmt.Errorf("fault: event %q: %s takes no slot", part, kind)
		}
		p.Events = append(p.Events, e)
	}
	return p, nil
}

// ForDevices filters the plan to events hitting only the named devices
// — how a fleet scopes one storm to a single node's platform while the
// other nodes run clean. Event order is preserved.
func (p Plan) ForDevices(devs ...device.ID) Plan {
	keep := make(map[device.ID]bool, len(devs))
	for _, d := range devs {
		keep[d] = true
	}
	var out Plan
	for _, e := range p.Events {
		if keep[e.Device] {
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// StormTarget names one device a storm may hit. Slots must be the slot
// count for FPGAs and 0 for processors (which then only receive
// device-level and configuration faults).
type StormTarget struct {
	Device device.ID
	Slots  int
}

// StormSpec parameterizes a generated fault storm.
type StormSpec struct {
	// Horizon bounds event times: each event is drawn uniformly from
	// [1, Horizon].
	Horizon device.Micros
	// Counts per fault kind.
	SlotFails, DeviceFails, ConfigErrors, SEUs int
	// Targets are the devices the storm may hit.
	Targets []StormTarget
}

// Storm draws a fault schedule from an explicit random source. The same
// *rand.Rand state always yields the same plan.
func Storm(r *rand.Rand, spec StormSpec) (Plan, error) {
	if len(spec.Targets) == 0 {
		return Plan{}, fmt.Errorf("fault: storm needs at least one target")
	}
	if spec.Horizon == 0 {
		return Plan{}, fmt.Errorf("fault: storm needs a positive horizon")
	}
	var fpgas []StormTarget
	for _, t := range spec.Targets {
		if t.Slots > 0 {
			fpgas = append(fpgas, t)
		}
	}
	if spec.SlotFails > 0 && len(fpgas) == 0 {
		return Plan{}, fmt.Errorf("fault: storm wants slot failures but no target has slots")
	}
	var p Plan
	at := func() device.Micros { return 1 + device.Micros(r.Int63n(int64(spec.Horizon))) }
	for i := 0; i < spec.SlotFails; i++ {
		t := fpgas[r.Intn(len(fpgas))]
		p.Events = append(p.Events, Event{At: at(), Kind: SlotFail, Device: t.Device, Slot: r.Intn(t.Slots)})
	}
	for i := 0; i < spec.DeviceFails; i++ {
		t := spec.Targets[r.Intn(len(spec.Targets))]
		p.Events = append(p.Events, Event{At: at(), Kind: DeviceFail, Device: t.Device})
	}
	for i := 0; i < spec.ConfigErrors; i++ {
		t := spec.Targets[r.Intn(len(spec.Targets))]
		p.Events = append(p.Events, Event{At: at(), Kind: ConfigError, Device: t.Device})
	}
	for i := 0; i < spec.SEUs; i++ {
		t := spec.Targets[r.Intn(len(spec.Targets))]
		p.Events = append(p.Events, Event{At: at(), Kind: SEU, Device: t.Device})
	}
	return p, nil
}

// Applied records one injected event and what it hit.
type Applied struct {
	Event    Event
	Affected []rtsys.TaskID
	// NoVictim is set when a ConfigError/SEU found no eligible task on
	// the target device (the fault hit an idle region) or a
	// SlotFail/DeviceFail hit already-failed or empty capacity.
	NoVictim bool
}

// Observer receives one applied fault event. Observers run
// synchronously on the injecting goroutine, in subscription order,
// after the event has been applied to the system and accounted on the
// metric bundle — an observer sees the platform state the fault left
// behind. Serving layers subscribe their circuit breakers here so
// admission control reacts to platform health, not just to per-request
// failures.
type Observer func(Applied)

// Injector replays a Plan against a run-time system. It never advances
// the clock on its own: the owner either advances the system and calls
// ApplyDue, or lets AdvanceTo stop at each fault time.
type Injector struct {
	sys       *rtsys.System
	events    []Event // sorted by At, stable
	next      int
	log       []Applied
	met       *injMetrics
	observers []Observer
}

// injMetrics is the injector's observability bundle: injections by
// kind, no-victim hits, and a trace of applied events at sim time.
type injMetrics struct {
	enabled  bool
	byKind   map[Kind]*obs.Counter
	noVictim *obs.Counter
	trace    *obs.Ring
}

func newInjMetrics(reg *obs.Registry) *injMetrics {
	m := &injMetrics{
		enabled: reg != nil,
		byKind:  make(map[Kind]*obs.Counter, len(kindNames)),
		noVictim: reg.Counter("qos_fault_no_victim_total",
			"injected faults that hit idle capacity"),
		trace: reg.Ring("qos_fault_trace", "applied fault events (sim micros)", 128),
	}
	for k, name := range kindNames {
		m.byKind[k] = reg.Counter(
			fmt.Sprintf("qos_fault_injections_total{kind=%q}", name),
			"faults injected by kind")
	}
	return m
}

// NewInjector binds a plan to a system.
func NewInjector(sys *rtsys.System, p Plan) *Injector {
	evs := append([]Event(nil), p.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return &Injector{sys: sys, events: evs, met: newInjMetrics(nil)}
}

// Instrument registers the injector's metric set on reg.
func (in *Injector) Instrument(reg *obs.Registry) { in.met = newInjMetrics(reg) }

// Subscribe registers fn to be called for every event applied from now
// on (events already in the log are not replayed). Not safe to call
// concurrently with ApplyDue/AdvanceTo — wire observers before the plan
// starts firing, from the driving goroutine.
func (in *Injector) Subscribe(fn Observer) {
	if fn != nil {
		in.observers = append(in.observers, fn)
	}
}

// Pending returns how many events have not fired yet.
func (in *Injector) Pending() int { return len(in.events) - in.next }

// NextAt returns the next event time, if any event remains.
func (in *Injector) NextAt() (device.Micros, bool) {
	if in.next >= len(in.events) {
		return 0, false
	}
	return in.events[in.next].At, true
}

// Log returns every event applied so far.
func (in *Injector) Log() []Applied { return in.log }

// ApplyDue fires every event whose time has been reached by the system
// clock and returns what was applied in this call.
func (in *Injector) ApplyDue() ([]Applied, error) {
	var out []Applied
	for in.next < len(in.events) && in.events[in.next].At <= in.sys.Now() {
		a, err := in.apply(in.events[in.next])
		if err != nil {
			return out, err
		}
		in.next++
		in.log = append(in.log, a)
		in.record(a)
		for _, fn := range in.observers {
			fn(a)
		}
		out = append(out, a)
	}
	return out, nil
}

// record accounts one applied event on the metric bundle.
func (in *Injector) record(a Applied) {
	if c, ok := in.met.byKind[a.Event.Kind]; ok {
		c.Inc()
	}
	if a.NoVictim {
		in.met.noVictim.Inc()
	}
	if in.met.enabled {
		detail := fmt.Sprintf("%s: %d victim(s)", a.Event, len(a.Affected))
		if a.NoVictim {
			detail = fmt.Sprintf("%s: no victim", a.Event)
		}
		in.met.trace.Append(obs.Event{
			At: int64(a.Event.At), Kind: a.Event.Kind.String(), Detail: detail,
		})
	}
}

// AdvanceTo advances the system clock to t, stopping at each due fault
// so configuration errors hit tasks that are genuinely mid-configuration
// at the fault time. It returns everything applied on the way.
func (in *Injector) AdvanceTo(t device.Micros) ([]Applied, error) {
	var out []Applied
	for {
		at, ok := in.NextAt()
		if !ok || at > t {
			break
		}
		if err := in.sys.AdvanceTo(at); err != nil {
			return out, err
		}
		applied, err := in.ApplyDue()
		out = append(out, applied...)
		if err != nil {
			return out, err
		}
	}
	if err := in.sys.AdvanceTo(t); err != nil {
		return out, err
	}
	return out, nil
}

// apply fires one event.
func (in *Injector) apply(e Event) (Applied, error) {
	a := Applied{Event: e}
	switch e.Kind {
	case SlotFail:
		t, err := in.sys.FailSlot(e.Device, e.Slot)
		if err != nil {
			return a, fmt.Errorf("fault: %s: %w", e, err)
		}
		if t == nil {
			a.NoVictim = true
		} else {
			a.Affected = append(a.Affected, t.ID)
		}
	case DeviceFail:
		ts, err := in.sys.FailDevice(e.Device)
		if err != nil {
			return a, fmt.Errorf("fault: %s: %w", e, err)
		}
		if len(ts) == 0 {
			a.NoVictim = true
		}
		for _, t := range ts {
			a.Affected = append(a.Affected, t.ID)
		}
	case ConfigError:
		t := in.victim(e.Device, rtsys.Configuring)
		if t == nil {
			a.NoVictim = true
			return a, nil
		}
		if err := in.sys.ConfigError(t); err != nil {
			return a, fmt.Errorf("fault: %s: %w", e, err)
		}
		a.Affected = append(a.Affected, t.ID)
	case SEU:
		t := in.victim(e.Device, rtsys.Running)
		if t == nil {
			a.NoVictim = true
			return a, nil
		}
		if err := in.sys.SEU(t); err != nil {
			return a, fmt.Errorf("fault: %s: %w", e, err)
		}
		a.Affected = append(a.Affected, t.ID)
	default:
		return a, fmt.Errorf("fault: unknown event kind %v", e.Kind)
	}
	return a, nil
}

// victim returns the lowest-ID task in the wanted state on the device —
// a deterministic choice, so replays are exact.
func (in *Injector) victim(dev device.ID, st rtsys.State) *rtsys.Task {
	var v *rtsys.Task
	if in.sys.Count(st) > 0 {
		in.sys.Walk(func(t *rtsys.Task) bool {
			if t.Dev == dev && t.State == st {
				v = t
			}
			return v == nil
		})
	}
	return v
}
