package qosalloc

// Multi-tenant fleet facade (DESIGN.md §13): N simulated nodes — each
// its own repository, device set and runtime — behind one allocator
// that scores placements with the pure policy package and enforces
// per-tenant QoS-class budgets at admission. Construction uses the
// shared Option vocabulary: WithThreshold, WithLocalMeasure,
// WithAmalgamation, WithNBest and WithPowerWeight tune the fleet exactly
// as they tune a Manager, while WithFleetNode, WithTenant and
// WithClassBudget declare the fleet-only topology and tenancy.
// Declaration order is part of the replay contract.

import (
	"qosalloc/internal/admit"
	"qosalloc/internal/fleet"
)

// Fleet-layer types.
type (
	// Fleet allocates QoS functions across N simulated nodes for
	// competing tenants. Create with NewFleet; purely sim-time driven,
	// so runs replay bit-identically (see Fleet.ReplayHash).
	Fleet = fleet.Fleet
	// FleetNode is one node: a device set, runtime and repository.
	FleetNode = fleet.Node
	// FleetOptions is the explicit configuration behind the Options.
	FleetOptions = fleet.Options
	// FleetPlacement reports one cross-node placement.
	FleetPlacement = fleet.Placement
	// FleetRecovery is the fleet-level degrade-and-retry outcome for
	// one fault-stranded task.
	FleetRecovery = fleet.Recovery
	// FleetStats snapshots the fleet counters.
	FleetStats = fleet.Stats
	// QoSClass names a tenant service class bound to one ClassBudget.
	QoSClass = admit.QoSClass
	// ClassBudget is the integer resource envelope of one QoS class
	// (FPGA slices, BRAMs, reconfiguration bandwidth).
	ClassBudget = admit.ClassBudget
	// ErrBudgetExceeded is the typed per-tenant budget rejection.
	ErrBudgetExceeded = admit.ErrBudgetExceeded
	// BudgetLedger attributes platform usage to tenants and enforces
	// class budgets at admission time.
	BudgetLedger = admit.Ledger
)

// fleetNodeSpec, tenantBinding and classBudgetDef carry the fleet
// option state in declaration order (see config).
type fleetNodeSpec struct {
	name          string
	repoBandwidth int
	devs          []Device
}
type tenantBinding struct {
	tenant string
	class  QoSClass
}
type classBudgetDef struct {
	class  QoSClass
	budget ClassBudget
}

// WithFleetNode declares one fleet node with its repository streaming
// bandwidth (bytes per microsecond) and device set (fleet only).
// Node declaration order is part of the fleet's replay contract.
func WithFleetNode(name string, repoBandwidth int, devs ...Device) Option {
	return func(c *config) {
		c.fleetNodes = append(c.fleetNodes, fleetNodeSpec{name: name, repoBandwidth: repoBandwidth, devs: devs})
	}
}

// WithTenant binds a tenant to a QoS class (fleet only). Unbound
// tenants are admitted unmetered.
func WithTenant(tenant string, class QoSClass) Option {
	return func(c *config) {
		c.tenantBinds = append(c.tenantBinds, tenantBinding{tenant: tenant, class: class})
	}
}

// WithClassBudget defines (or replaces) a QoS class's resource budget
// (fleet only). A zero budget field leaves that dimension unmetered.
func WithClassBudget(class QoSClass, b ClassBudget) Option {
	return func(c *config) {
		c.classBudgets = append(c.classBudgets, classBudgetDef{class: class, budget: b})
	}
}

// NewFleet builds a multi-tenant fleet allocator over a case base:
//
//	fl, err := qosalloc.NewFleet(cb,
//		qosalloc.WithFleetNode("node0", 20, devsA...),
//		qosalloc.WithFleetNode("node1", 20, devsB...),
//		qosalloc.WithClassBudget("bronze", qosalloc.ClassBudget{Slices: 920}),
//		qosalloc.WithTenant("batch", "bronze"),
//		qosalloc.WithThreshold(0.7))
//	p, err := fl.Allocate("batch", "mp3", req, 5)
func NewFleet(cb *CaseBase, opts ...Option) (*Fleet, error) {
	c := buildConfig(opts)
	fl := fleet.New(NewRetrievalEngine(cb, opts...), fleet.Options{
		NBest:       c.serve.Manager.NBest,
		PowerWeight: c.serve.Manager.PowerWeight,
	})
	fl.Instrument(c.reg)
	for _, b := range c.classBudgets {
		fl.Ledger().DefineClass(b.class, b.budget)
	}
	for _, tb := range c.tenantBinds {
		fl.Ledger().BindTenant(tb.tenant, tb.class)
	}
	for _, n := range c.fleetNodes {
		if _, err := fl.AddNode(n.name, n.repoBandwidth, n.devs...); err != nil {
			return nil, err
		}
	}
	return fl, nil
}

// ParseClassBudgets parses the CLI class-budget syntax shared with
// qosd: ';'-separated "class=res:val,..." entries (res ∈ slices,
// brams, cfgbps, cfgburst).
func ParseClassBudgets(s string) (map[QoSClass]ClassBudget, error) {
	return admit.ParseClassBudgets(s)
}
