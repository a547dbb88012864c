package rtsys

import (
	"fmt"

	"qosalloc/internal/device"
	"qosalloc/internal/obs"
)

// transition event names, the label values of
// qos_rtsys_transitions_total. Pre-enumerated so the bundle can create
// every counter up front and the hot path stays allocation-free.
var transitionEvents = []string{
	"create", "place", "run", "preempt", "complete",
	"config-error", "seu", "retry", "fail", "strand", "requeue",
}

// rtMetrics is the run-time system's observability bundle. Like the
// allocation manager's, a dangling bundle (nil registry) backs every
// uninstrumented system so transition sites never branch; only trace
// formatting checks enabled.
type rtMetrics struct {
	enabled bool

	transitions map[string]*obs.Counter
	// tasksByState are queue-depth gauges, one per lifecycle state,
	// maintained incrementally on every transition.
	tasksByState [Recovering + 1]*obs.Gauge

	deviceFaults *obs.Counter
	slotFaults   *obs.Counter

	// waitMicros observes Pending/Preempted span lengths as they end —
	// the queueing delay the adaptive-priority aging fights.
	waitMicros *obs.Histogram
	// configMicros observes the fetch+configuration latency of each
	// placement that reached Running.
	configMicros *obs.Histogram

	trace *obs.Ring
}

func newRTMetrics(reg *obs.Registry) *rtMetrics {
	m := &rtMetrics{
		enabled:     reg != nil,
		transitions: make(map[string]*obs.Counter, len(transitionEvents)),
		deviceFaults: reg.Counter("qos_rtsys_device_faults_total",
			"whole-device permanent failures"),
		slotFaults: reg.Counter("qos_rtsys_slot_faults_total",
			"FPGA slot permanent failures"),
		waitMicros: reg.Histogram("qos_rtsys_wait_micros",
			"task wait-span lengths (Pending/Preempted) in sim micros", obs.LatencyBucketsMicros),
		configMicros: reg.Histogram("qos_rtsys_config_micros",
			"fetch+configuration latency of completed configurations in sim micros", obs.LatencyBucketsMicros),
		trace: reg.Ring("qos_rtsys_trace", "task state-transition trace (sim micros)", 512),
	}
	for _, ev := range transitionEvents {
		m.transitions[ev] = reg.Counter(
			fmt.Sprintf("qos_rtsys_transitions_total{event=%q}", ev),
			"task lifecycle transitions by event")
	}
	for st := Pending; st <= Recovering; st++ {
		m.tasksByState[st] = reg.Gauge(
			fmt.Sprintf("qos_rtsys_tasks{state=%q}", st.String()),
			"tasks currently in each lifecycle state")
	}
	return m
}

// setState moves a task to a new lifecycle state, keeping the queue-depth
// gauges, the transition counter and the trace ring coherent. Every
// t.State assignment in the package goes through here.
func (s *System) setState(t *Task, to State, event string) {
	from, wasStranded := t.State, t.Stranded()
	s.met.tasksByState[from].Add(-1)
	s.met.tasksByState[to].Add(1)
	s.byState[from]--
	s.byState[to]++
	t.State = to
	if st := t.Stranded(); st != wasStranded {
		if st {
			s.stranded++
		} else {
			s.stranded--
		}
	}
	if c, ok := s.met.transitions[event]; ok {
		c.Inc()
	}
	if s.met.enabled {
		s.met.trace.Append(obs.Event{
			At: int64(s.now), Kind: event,
			Detail: fmt.Sprintf("task %d: %v -> %v", t.ID, from, to),
		})
	}
}

// devSync refreshes the device-layer gauges after a mutating operation.
func (s *System) devSync() {
	if s.devObs.Enabled() {
		s.devObs.Sync(s.now, s.devices)
	}
}

// Instrument registers the run-time system's metric set — task lifecycle
// transitions, queue depths, wait/configuration latency histograms, the
// transition trace ring — and the per-device health/occupancy gauges on
// reg, then primes the device gauges with the current state.
func (s *System) Instrument(reg *obs.Registry) {
	s.met = newRTMetrics(reg)
	s.devObs = device.NewObserver(reg)
	// Prime queue depths for tasks that predate instrumentation.
	for st := Pending; st <= Recovering; st++ {
		s.met.tasksByState[st].Set(int64(s.byState[st]))
	}
	s.devSync()
}
