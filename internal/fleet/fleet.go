// Package fleet scales the paper's single-platform allocation manager
// to N simulated nodes under multi-tenant QoS-class budgets. It is the
// first consumer of the policy/mechanism split (DESIGN.md §13) that
// composes the layers differently than alloc.Manager does: one shared
// retrieval engine scores candidates for the whole fleet, the pure
// policy package ranks nodes, and each node's alloc.Mechanism executes
// placements against that node's devices and run-time system. Power
// ranking, the stranded-task sweep, same-node re-placement, target
// exclusion, the waiting-task order and the degradation check are the
// Mechanism's and alloc.Degraded, shared with the Manager; the fleet
// adds only cross-node migration and the tenant ledger.
//
// Tenants are bound to QoS classes whose integer slice/BRAM/
// reconfiguration-bandwidth budgets (admit.Ledger) are enforced at
// admission: an over-budget tenant is thrown back with a typed
// *admit.ErrBudgetExceeded, never queued on its neighbors. Fault
// recovery deliberately bypasses admission — a stranded task already
// owns its capacity envelope — which is what keeps a noisy neighbor
// from starving a degraded tenant's recovery (the fleetcheck
// scenario).
//
// Everything runs on sim time with explicit seeds; the journal of
// placement events hashes to the same value on every run at any node
// count, the property the replay test pins.
package fleet

import (
	"fmt"

	"qosalloc/internal/admit"
	"qosalloc/internal/alloc"
	"qosalloc/internal/alloc/policy"
	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/fault"
	"qosalloc/internal/obs"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/rtsys"
)

// Options tune fleet-wide allocation policy; the same knobs as the
// single-node manager where they overlap. The similarity threshold is
// the retrieval engine's.
type Options struct {
	// NBest bounds how many candidates are checked per request. Zero
	// means alloc.DefaultNBest.
	NBest int
	// PowerWeight trades QoS similarity against power when ranking
	// candidates (zero keeps the paper's pure-similarity ranking).
	PowerWeight float64
}

// Placement reports a successful fleet allocation.
type Placement struct {
	Node       string
	Task       rtsys.TaskID
	Tenant     string
	Impl       casebase.ImplID
	Target     casebase.Target
	Device     device.ID
	Similarity float64
	ReadyAt    device.Micros
}

// Recovery is the outcome of fleet degrade-and-retry for one stranded
// task: re-placed on its own node, migrated to another, or rejected.
type Recovery struct {
	Node   string // node the fault stranded the task on
	Task   rtsys.TaskID
	Tenant string
	// Placement is set when the task came back (same node or another);
	// nil means the task was rejected.
	Placement *Placement
	Degraded  bool
	Migrated  bool
}

// Stats counts fleet activity.
type Stats struct {
	Requests       int
	Placed         int
	BudgetRejected int // typed *admit.ErrBudgetExceeded rejections
	Infeasible     int

	Recovered     int // stranded tasks re-placed (either node)
	Migrated      int // …of which on a different node
	Degraded      int // …of which on a worse-matching variant
	FaultRejected int
	Rebalanced    int // waiting tasks re-placed by Rebalance
}

// taskRec is the fleet's per-task bookkeeping: who owns it, what it
// asked for, and what it holds — the inputs to recovery and release.
type taskRec struct {
	tenant string
	app    string
	req    casebase.Request
	impl   casebase.ImplID
	sim    float64
	foot   casebase.Footprint
	prio   int
}

// Node is one simulated platform: a device set with its own
// configuration repository, run-time system, mechanism, and
// (optionally) a scoped fault injector.
type Node struct {
	name  string
	sys   *rtsys.System
	mech  *alloc.Mechanism
	inj   *fault.Injector
	tasks map[rtsys.TaskID]*taskRec
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// System returns the node's run-time system.
func (n *Node) System() *rtsys.System { return n.sys }

// Injector returns the node's fault injector, nil when none was wired.
func (n *Node) Injector() *fault.Injector { return n.inj }

// Fleet allocates QoS-constrained functions across nodes for tenants.
// Not safe for concurrent use: like the run-time systems it drives, it
// is single-threaded sim-time machinery; a serving layer must
// serialize into it (as serve does for the single-node manager).
type Fleet struct {
	cb *casebase.CaseBase
	// resolve is a system-less mechanism used only for implementation
	// records (ImplOf and RankForPower never touch a run-time system).
	resolve *alloc.Mechanism
	engine  *retrieval.Engine
	nodes   []*Node
	byName  map[string]*Node
	ledger  *admit.Ledger
	opt     Options
	now     device.Micros
	reg     *obs.Registry // nil until Instrument
	counts  counts
	journal *obs.Journal
}

// New builds an empty fleet that retrieves on eng, over eng's case base,
// which every node shares; add platforms with AddNode.
func New(eng *retrieval.Engine, opt Options) *Fleet {
	if opt.NBest <= 0 {
		opt.NBest = alloc.DefaultNBest
	}
	cb := eng.CaseBase()
	return &Fleet{
		cb:      cb,
		resolve: alloc.NewMechanism(cb, nil),
		engine:  eng,
		byName:  make(map[string]*Node),
		ledger:  admit.NewLedger(),
		opt:     opt,
		journal: obs.NewJournal(),
	}
}

// Instrument registers the fleet's metric set on reg and attaches its
// counts; per-node and per-tenant series materialize lazily as they are
// first touched.
func (f *Fleet) Instrument(reg *obs.Registry) {
	f.reg = reg
	f.counts.attach(reg)
}

// AddNode builds a node named name over devs: a fresh configuration
// repository populated from the shared case base, a run-time system,
// and a mechanism. Nodes keep insertion order everywhere the fleet
// iterates, so construction order is part of the replay contract.
func (f *Fleet) AddNode(name string, repoBandwidth int, devs ...device.Device) (*Node, error) {
	if name == "" {
		return nil, fmt.Errorf("fleet: node needs a name")
	}
	if _, dup := f.byName[name]; dup {
		return nil, fmt.Errorf("fleet: duplicate node %q", name)
	}
	repo := device.NewRepository(repoBandwidth)
	if err := repo.PopulateFromCaseBase(f.cb); err != nil {
		return nil, fmt.Errorf("fleet: node %q repository: %w", name, err)
	}
	sys := rtsys.NewSystem(repo, devs...)
	n := &Node{
		name:  name,
		sys:   sys,
		mech:  alloc.NewMechanism(f.cb, sys),
		tasks: make(map[rtsys.TaskID]*taskRec),
	}
	f.nodes = append(f.nodes, n)
	f.byName[name] = n
	return n, nil
}

// InjectFaults binds plan to the named node's run-time system. Use
// fault.Plan.ForDevices to scope a fleet-wide storm to one node.
func (f *Fleet) InjectFaults(node string, plan fault.Plan) (*fault.Injector, error) {
	n, ok := f.byName[node]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown node %q", node)
	}
	n.inj = fault.NewInjector(n.sys, plan)
	return n.inj, nil
}

// Ledger returns the tenant budget ledger; define classes and bind
// tenants on it before traffic starts.
func (f *Fleet) Ledger() *admit.Ledger { return f.ledger }

// Node returns a node by name.
func (f *Fleet) Node(name string) (*Node, bool) {
	n, ok := f.byName[name]
	return n, ok
}

// NodeNames returns the node names in insertion order.
func (f *Fleet) NodeNames() []string {
	out := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = n.name
	}
	return out
}

// Now returns the fleet sim clock.
func (f *Fleet) Now() device.Micros { return f.now }

// Stats returns a copy of the counters.
func (f *Fleet) Stats() Stats {
	c := &f.counts
	return Stats{
		Requests: int(c.requests.Load()), Placed: int(c.placed.Load()),
		BudgetRejected: int(c.budgetRejected.Load()), Infeasible: int(c.infeasible.Load()),
		Recovered: int(c.recovered.Load()), Migrated: int(c.migrated.Load()),
		Degraded: int(c.degraded.Load()), FaultRejected: int(c.faultRejected.Load()),
		Rebalanced: int(c.rebalanced.Load()),
	}
}

// AdvanceTo advances every node's clock to t in insertion order,
// firing each node's due faults on the way.
func (f *Fleet) AdvanceTo(t device.Micros) error {
	for _, n := range f.nodes {
		if n.inj != nil {
			if _, err := n.inj.AdvanceTo(t); err != nil {
				return fmt.Errorf("fleet: node %q: %w", n.name, err)
			}
		} else if err := n.sys.AdvanceTo(t); err != nil {
			return fmt.Errorf("fleet: node %q: %w", n.name, err)
		}
	}
	f.now = t
	return nil
}

// views snapshots every node for policy ranking.
func (f *Fleet) views() []policy.NodeView {
	out := make([]policy.NodeView, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = n.mech.View(n.name)
	}
	return out
}

// Allocate places the best-matching variant for a tenant's request on
// the best-ranked node with budget and capacity. The walk is: retrieve
// N-best on the shared engine, power-rank, score nodes once, then per
// candidate charge the tenant's budget (refunded if no node takes the
// variant) and try nodes best-first. An over-budget tenant gets the
// typed *admit.ErrBudgetExceeded for its best candidate; a tenant
// within budget but out of capacity gets *alloc.ErrNoFeasible.
func (f *Fleet) Allocate(tenant, app string, req casebase.Request, basePrio int) (*Placement, error) {
	f.counts.requests.Inc()
	candidates, err := f.engine.RetrieveN(req, f.opt.NBest)
	if err != nil {
		f.log("reject t=%d tenant=%s type=%d", f.now, tenant, req.Type)
		return nil, err
	}
	f.resolve.RankForPower(req.Type, candidates, f.opt.PowerWeight)
	order := policy.RankNodes(f.views())

	var budgetErr error
	for _, cand := range candidates {
		im, err := f.resolve.ImplOf(req.Type, cand.Impl)
		if err != nil {
			continue
		}
		if err := f.ledger.Admit(tenant, im.Foot, f.now); err != nil {
			if budgetErr == nil {
				budgetErr = err
			}
			continue
		}
		for _, ni := range order {
			n := f.nodes[ni]
			task, dev, err := n.mech.TryPlace(app, req.Type, im, basePrio)
			if err != nil {
				continue
			}
			n.tasks[task.ID] = &taskRec{
				tenant: tenant, app: app, req: req,
				impl: cand.Impl, sim: cand.Similarity, foot: im.Foot, prio: basePrio,
			}
			f.counts.placed.Inc()
			f.nodePlaced(n.name).Inc()
			f.tenantPlaced(tenant).Inc()
			f.observeTenant(tenant)
			f.log("place t=%d tenant=%s node=%s task=%d impl=%d dev=%s", f.now, tenant, n.name, task.ID, cand.Impl, dev.Name())
			return &Placement{
				Node: n.name, Task: task.ID, Tenant: tenant,
				Impl: cand.Impl, Target: im.Target, Device: dev.Name(),
				Similarity: cand.Similarity, ReadyAt: task.ReadyAt,
			}, nil
		}
		// No node took the variant; the charge covered nothing.
		f.ledger.Refund(tenant, im.Foot)
	}
	if budgetErr != nil {
		f.counts.budgetRejected.Inc()
		f.tenantThrottled(tenant).Inc()
		f.log("budget-reject t=%d tenant=%s type=%d", f.now, tenant, req.Type)
		return nil, budgetErr
	}
	f.counts.infeasible.Inc()
	f.log("infeasible t=%d tenant=%s type=%d candidates=%d", f.now, tenant, req.Type, len(candidates))
	return nil, &alloc.ErrNoFeasible{Alternatives: candidates}
}

// Release completes a task and returns its space holdings to the
// tenant's budget.
func (f *Fleet) Release(node string, id rtsys.TaskID) error {
	n, ok := f.byName[node]
	if !ok {
		return fmt.Errorf("fleet: unknown node %q", node)
	}
	issued, err := n.sys.CompleteID(id)
	if !issued {
		return fmt.Errorf("fleet: node %q has no task %d", node, id)
	}
	if err != nil {
		return fmt.Errorf("fleet: release task %d on %q: %w", id, node, err)
	}
	if tr := n.tasks[id]; tr != nil {
		f.ledger.Release(tr.tenant, tr.foot)
		f.observeTenant(tr.tenant)
		f.log("release t=%d tenant=%s node=%s task=%d", f.now, tr.tenant, node, id)
		delete(n.tasks, id)
	}
	return nil
}

// RecoverAll sweeps every node (insertion order) for fault-stranded
// tasks and runs fleet degrade-and-retry on each: same node first
// (excluding dead target classes), then migration to the best-ranked
// other node, otherwise rejection. Recovery placements bypass the
// budget ledger — the capacity is already attributed to the tenant —
// so a noisy neighbor's admission pressure cannot starve them.
func (f *Fleet) RecoverAll() []Recovery {
	var out []Recovery
	for _, n := range f.nodes {
		n.mech.SweepStranded(func(t *rtsys.Task) { out = append(out, f.recoverTask(n, t)) })
	}
	return out
}

// recoverTask runs degrade-and-retry for one stranded task.
func (f *Fleet) recoverTask(n *Node, t *rtsys.Task) Recovery {
	tr := n.tasks[t.ID]
	if tr == nil {
		// Placed around the fleet; all we know is the type.
		tr = &taskRec{app: t.App, req: casebase.NewRequest(t.Type), impl: t.Impl, prio: t.BasePrio}
	}
	rec := Recovery{Node: n.name, Task: t.ID, Tenant: tr.tenant}
	excluded := n.mech.ExcludedTargets()
	// The N best with their breakdowns, threshold not applied.
	all, err := f.engine.RetrieveAll(tr.req)
	if err != nil {
		f.rejectRecovery(n, t, tr)
		return rec
	}
	candidates := all[:min(f.opt.NBest, len(all))]
	f.resolve.RankForPower(tr.req.Type, candidates, f.opt.PowerWeight)

	// Same node first: the storm-hit node's surviving capacity belongs
	// to its own stranded tenants.
	if tried, im, dev := n.mech.Reseat(t, tr.req.Type, candidates, excluded); dev != nil {
		f.settleRecovery(&rec, n, n, t.ID, tr, all, tried[len(tried)-1], im, dev.Name(), t.ReadyAt)
		return rec
	}

	// Migrate: create a substitute task on the best-ranked other node.
	order := policy.RankNodes(f.views())
	for _, cand := range candidates {
		im, err := f.resolve.ImplOf(tr.req.Type, cand.Impl)
		if err != nil {
			continue
		}
		if dst, task, dev := f.migrate(n, t, tr, im, order); dst != nil {
			f.settleRecovery(&rec, n, dst, task.ID, tr, all, cand, im, dev.Name(), task.ReadyAt)
			rec.Migrated = true
			return rec
		}
	}

	f.rejectRecovery(n, t, tr)
	return rec
}

// settleRecovery books a successful recovery placement: ledger
// transfer (old footprint out, new in, no budget check), degradation
// accounting against the original variant (from all, the recovery's
// RetrieveAll list), journal, metrics.
func (f *Fleet) settleRecovery(rec *Recovery, from, to *Node, id rtsys.TaskID, tr *taskRec, all []retrieval.Result, cand retrieval.Result, im *casebase.Implementation, dev device.ID, readyAt device.Micros) {
	if tr.tenant != "" {
		f.ledger.Release(tr.tenant, tr.foot)
		f.ledger.ForceCharge(tr.tenant, im.Foot)
		f.observeTenant(tr.tenant)
	}
	if alloc.Degraded(all, tr.impl, tr.sim, cand) != nil {
		rec.Degraded = true
		f.counts.degraded.Inc()
	}
	nrec := &taskRec{
		tenant: tr.tenant, app: tr.app, req: tr.req,
		impl: cand.Impl, sim: cand.Similarity, foot: im.Foot, prio: tr.prio,
	}
	to.tasks[id] = nrec
	rec.Placement = &Placement{
		Node: to.name, Task: id, Tenant: tr.tenant,
		Impl: cand.Impl, Target: im.Target, Device: dev,
		Similarity: cand.Similarity, ReadyAt: readyAt,
	}
	f.counts.recovered.Inc()
	f.nodeRecovered(to.name).Inc()
	f.log("recover t=%d tenant=%s from=%s to=%s task=%d impl=%d dev=%s", f.now, tr.tenant, from.name, to.name, id, cand.Impl, dev)
}

// rejectRecovery finalizes a stranded task nothing could host: the
// task completes (the application cannot call the function) and its
// holdings return to the tenant's budget.
func (f *Fleet) rejectRecovery(n *Node, t *rtsys.Task, tr *taskRec) {
	_ = n.sys.Complete(t)
	if tr.tenant != "" {
		f.ledger.Release(tr.tenant, tr.foot)
		f.observeTenant(tr.tenant)
	}
	delete(n.tasks, t.ID)
	f.counts.faultRejected.Inc()
	f.log("fault-reject t=%d tenant=%s node=%s task=%d", f.now, tr.tenant, n.name, t.ID)
}

// Rebalance sweeps waiting (preempted) tasks in descending aged
// priority per node and re-places each on its own node first, then on
// the best-ranked other node — deterministic live rebalancing. It
// returns how many tasks came back.
func (f *Fleet) Rebalance() int {
	moved := 0
	for _, n := range f.nodes {
		for {
			t := n.mech.BestWaiting()
			if t == nil || !f.rebalanceOne(n, t) {
				break
			}
			moved++
			f.counts.rebalanced.Inc()
		}
	}
	return moved
}

// rebalanceOne re-places one waiting task: own node, then migration.
func (f *Fleet) rebalanceOne(n *Node, t *rtsys.Task) bool {
	tr := n.tasks[t.ID]
	if tr == nil {
		tr = &taskRec{app: t.App, req: casebase.NewRequest(t.Type), impl: t.Impl, prio: t.BasePrio}
	}
	im, err := f.resolve.ImplOf(t.Type, t.Impl)
	if err != nil {
		return false
	}
	if dev, ok := n.mech.PlaceExisting(t, im); ok {
		f.log("replace t=%d tenant=%s node=%s task=%d dev=%s", f.now, tr.tenant, n.name, t.ID, dev.Name())
		return true
	}
	dst, task, dev := f.migrate(n, t, tr, im, policy.RankNodes(f.views()))
	if dst == nil {
		return false
	}
	dst.tasks[task.ID] = &taskRec{
		tenant: tr.tenant, app: tr.app, req: tr.req,
		impl: t.Impl, sim: tr.sim, foot: im.Foot, prio: tr.prio,
	}
	f.log("rebalance t=%d tenant=%s from=%s to=%s task=%d dev=%s", f.now, tr.tenant, n.name, dst.name, task.ID, dev.Name())
	return true
}

// migrate moves t's work off node n: it creates a substitute task for
// im on the first node in order, other than n, with capacity, then
// completes the old shell (Pending or Preempted, nothing to release)
// and drops n's record of it. It returns the destination node, the new
// task and its device, or a nil node when no other node could host im.
func (f *Fleet) migrate(n *Node, t *rtsys.Task, tr *taskRec, im *casebase.Implementation, order []int) (*Node, *rtsys.Task, device.Device) {
	for _, ni := range order {
		dst := f.nodes[ni]
		if dst == n {
			continue
		}
		task, dev, err := dst.mech.TryPlace(tr.app, t.Type, im, tr.prio)
		if err != nil {
			continue
		}
		_ = n.sys.Complete(t)
		delete(n.tasks, t.ID)
		f.counts.migrated.Inc()
		return dst, task, dev
	}
	return nil, nil, nil
}

// log appends one journal line; the journal is the fleet's replay
// witness, hashed by ReplayHash.
func (f *Fleet) log(format string, args ...any) {
	f.journal.Append(fmt.Sprintf(format, args...))
}

// Journal returns the ordered placement-event log.
func (f *Fleet) Journal() []string { return f.journal.Lines() }

// ReplayHash returns the journal's printable fnv64a digest — two runs
// of the same schedule must produce the same value, the
// bit-identical-replay acceptance criterion.
func (f *Fleet) ReplayHash() string { return f.journal.Hash() }

// observeTenant refreshes the tenant's holdings gauges.
func (f *Fleet) observeTenant(tenant string) {
	if tenant == "" {
		return
	}
	slices, brams := f.ledger.Usage(tenant)
	f.tenantSlices(tenant).Set(int64(slices))
	f.tenantBRAMs(tenant).Set(int64(brams))
}
