// Package hwapi is the paper's HW-Layer API (fig. 1): "the interface for
// all hardware relevant aspects like resource consumption, low-level
// communication and reconfiguration of system parts". The allocation
// layer "will need informations about the current system load and power
// consumption status, which are procured by the HW-Layer API one level
// below" (§1) — this package produces exactly those status snapshots,
// plus a bounded history so management policies can react to trends.
package hwapi

import (
	"fmt"
	"sort"
	"strings"

	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/rtsys"
)

// DeviceStatus is the load/power snapshot of one device.
type DeviceStatus struct {
	Name    device.ID
	Kind    casebase.Target
	PowerMW int
	// Utilization is the committed share of the device's dominant
	// capacity in permille: occupied slots for FPGAs, CPU load for
	// processors.
	Utilization int
	// Tasks is the number of live placements.
	Tasks int
}

// Status is one platform-wide snapshot.
type Status struct {
	At           device.Micros
	Devices      []DeviceStatus
	TotalPowerMW int
	// Pending counts tasks waiting for capacity (Pending or
	// Preempted), the backlog signal a QoS manager watches.
	Pending int
}

// Snapshot queries the run-time system for the current load and power
// state.
func Snapshot(sys *rtsys.System) Status {
	st := Status{At: sys.Now()}
	for _, d := range sys.Devices() {
		ds := DeviceStatus{
			Name: d.Name(), Kind: d.Kind(),
			PowerMW: d.PowerMW(), Tasks: len(d.Placements()),
		}
		switch dev := d.(type) {
		case *device.FPGA:
			if n := dev.NumSlots(); n > 0 {
				ds.Utilization = 1000 * (n - dev.FreeSlots()) / n
			}
		case *device.Processor:
			if dev.LoadCapacity > 0 {
				ds.Utilization = 1000 * dev.Load() / dev.LoadCapacity
			}
		}
		st.TotalPowerMW += ds.PowerMW
		st.Devices = append(st.Devices, ds)
	}
	sort.Slice(st.Devices, func(i, j int) bool { return st.Devices[i].Name < st.Devices[j].Name })
	st.Pending = sys.Count(rtsys.Pending) + sys.Count(rtsys.Preempted)
	return st
}

// String renders the snapshot as a compact status line per device.
func (s Status) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%dus power=%dmW pending=%d\n", s.At, s.TotalPowerMW, s.Pending)
	for _, d := range s.Devices {
		fmt.Fprintf(&b, "  %-8s %-8s util=%3d.%d%% power=%4dmW tasks=%d\n",
			d.Name, d.Kind, d.Utilization/10, d.Utilization%10, d.PowerMW, d.Tasks)
	}
	return b.String()
}

// Monitor keeps a bounded history of snapshots for trend queries.
type Monitor struct {
	sys     *rtsys.System
	history []Status
	// Capacity bounds the history length; older snapshots are dropped.
	Capacity int
}

// NewMonitor returns a monitor over sys keeping up to capacity
// snapshots (default 64 when capacity ≤ 0).
func NewMonitor(sys *rtsys.System, capacity int) *Monitor {
	if capacity <= 0 {
		capacity = 64
	}
	return &Monitor{sys: sys, Capacity: capacity}
}

// Sample takes and stores a snapshot, returning it.
func (m *Monitor) Sample() Status {
	s := Snapshot(m.sys)
	m.history = append(m.history, s)
	if len(m.history) > m.Capacity {
		m.history = m.history[len(m.history)-m.Capacity:]
	}
	return s
}

// History returns the stored snapshots, oldest first.
func (m *Monitor) History() []Status { return m.history }

// PeakPowerMW returns the highest total power observed.
func (m *Monitor) PeakPowerMW() int {
	p := 0
	for _, s := range m.history {
		if s.TotalPowerMW > p {
			p = s.TotalPowerMW
		}
	}
	return p
}

// MeanPowerMW returns the average total power over the history.
func (m *Monitor) MeanPowerMW() float64 {
	if len(m.history) == 0 {
		return 0
	}
	sum := 0
	for _, s := range m.history {
		sum += s.TotalPowerMW
	}
	return float64(sum) / float64(len(m.history))
}

// MaxUtilization returns the highest single-device utilization (permille)
// in the latest snapshot, the headroom signal for admission control.
func (m *Monitor) MaxUtilization() int {
	if len(m.history) == 0 {
		return 0
	}
	last := m.history[len(m.history)-1]
	max := 0
	for _, d := range last.Devices {
		if d.Utilization > max {
			max = d.Utilization
		}
	}
	return max
}
