package fleet

import (
	"fmt"

	"qosalloc/internal/obs"
)

// counts are the fleet's counters, one per Stats field: Stats reads
// them and Instrument attaches them, so each fact is counted once.
type counts struct {
	requests, placed, budgetRejected, infeasible, recovered obs.Counter
	migrated, degraded, faultRejected, rebalanced           obs.Counter
}

// attach exports the counts on reg.
func (c *counts) attach(reg *obs.Registry) {
	reg.Attach("qos_fleet_requests_total", "fleet allocation requests received", &c.requests)
	reg.Attach("qos_fleet_placed_total", "successful fleet placements", &c.placed)
	reg.Attach("qos_fleet_budget_rejected_total", "requests rejected over a tenant budget", &c.budgetRejected)
	reg.Attach("qos_fleet_infeasible_total", "requests with matches but no placeable variant on any node", &c.infeasible)
	reg.Attach("qos_fleet_recovered_total", "fault-stranded tasks re-placed by fleet degrade-and-retry", &c.recovered)
	reg.Attach("qos_fleet_migrated_total", "tasks moved to a different node (recovery or rebalance)", &c.migrated)
	reg.Attach("qos_fleet_degraded_total", "recoveries that landed on a worse-matching variant", &c.degraded)
	reg.Attach("qos_fleet_fault_rejected_total", "stranded tasks no node could host", &c.faultRejected)
	reg.Attach("qos_fleet_rebalanced_total", "waiting tasks re-placed by Rebalance", &c.rebalanced)
}

// The per-node and per-tenant series below materialize lazily through
// the registry's get-or-create methods with constant-format label
// names, the idiom the fault injector uses for its per-kind counters.
// Before Instrument the registry is nil and they are no-op instruments.

// nodePlaced returns the per-node placement counter.
func (f *Fleet) nodePlaced(node string) *obs.Counter {
	return f.reg.Counter(fmt.Sprintf("qos_fleet_node_placed_total{node=%q}", node),
		"placements by node")
}

// nodeRecovered returns the per-node recovery-landing counter.
func (f *Fleet) nodeRecovered(node string) *obs.Counter {
	return f.reg.Counter(fmt.Sprintf("qos_fleet_node_recovered_total{node=%q}", node),
		"recovery placements landing on the node")
}

// tenantPlaced returns the per-tenant placement counter.
func (f *Fleet) tenantPlaced(tenant string) *obs.Counter {
	return f.reg.Counter(fmt.Sprintf("qos_fleet_tenant_placed_total{tenant=%q}", tenant),
		"placements by tenant")
}

// tenantThrottled returns the per-tenant budget-rejection counter.
func (f *Fleet) tenantThrottled(tenant string) *obs.Counter {
	return f.reg.Counter(fmt.Sprintf("qos_fleet_tenant_throttled_total{tenant=%q}", tenant),
		"budget rejections by tenant")
}

// tenantSlices returns the tenant's live slice-holdings gauge.
func (f *Fleet) tenantSlices(tenant string) *obs.Gauge {
	return f.reg.Gauge(fmt.Sprintf("qos_fleet_tenant_slices{tenant=%q}", tenant),
		"FPGA slices currently attributed to the tenant")
}

// tenantBRAMs returns the tenant's live BRAM-holdings gauge.
func (f *Fleet) tenantBRAMs(tenant string) *obs.Gauge {
	return f.reg.Gauge(fmt.Sprintf("qos_fleet_tenant_brams{tenant=%q}", tenant),
		"BRAMs currently attributed to the tenant")
}
