// Package alloc implements the paper's Function-Allocation-Management
// layer (fig. 1): the component between the Application-API and the
// HW-Layer API that, for each QoS-constrained function call, retrieves
// the best-matching implementation variants from the case base, checks
// their feasibility against the current system load, places the chosen
// variant on a device (possibly preempting lower-priority work), offers
// alternatives when the best match is not feasible, and hands out bypass
// tokens so repeated calls skip the retrieval (§2–§3).
//
// Decisions are split from effects (DESIGN.md §13). The pure policy
// subpackage decides; Mechanism executes against one run-time system
// and answers the victim, waiting-task, target-exclusion and
// power-ranking questions by calling policy; Degraded judges what a
// recovery cost. Manager composes them with its own booking, and the
// fleet layer reuses the same pieces across nodes.
package alloc

import (
	"errors"
	"fmt"

	"qosalloc/internal/alloc/policy"
	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/obs"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/rtsys"
)

// ErrNoViableVariant is the sentinel wrapped by both ErrNoFeasible and
// DegradationReport: retrieval produced candidates but none could be
// placed anywhere, even after falling down the N-best list.
var ErrNoViableVariant = errors.New("alloc: no viable variant")

// Options tune the manager's policy. The similarity threshold ("it's
// conceivable to reject all results below a given threshold
// similarity", §3) is the retrieval engine's (retrieval.Options).
type Options struct {
	// NBest bounds how many retrieval candidates are checked for
	// feasibility, the §5 n-most-similar extension. Zero means
	// DefaultNBest.
	NBest int
	// AllowPreemption permits evicting strictly lower-priority tasks
	// when the best match has no free capacity.
	AllowPreemption bool
	// UseBypassTokens enables Request's repeated-call shortcut; with it
	// off the manager neither looks up nor stores a token.
	UseBypassTokens bool
	// PowerWeight trades QoS similarity against power (the §1
	// "energy/power-efficiency" goal): candidates are ranked by
	// S - PowerWeight·(PowerMW/1000) instead of S alone. Zero keeps
	// the paper's pure-similarity ranking.
	PowerWeight float64
}

// DefaultNBest is the N-best depth used when Options.NBest is zero.
const DefaultNBest = 3

// Decision reports a successful allocation.
type Decision struct {
	Task       *rtsys.Task
	Impl       casebase.ImplID
	Target     casebase.Target
	Device     device.ID
	Similarity float64
	ReadyAt    device.Micros
	ViaToken   bool
	Preempted  []rtsys.TaskID
	// Degraded is set when this decision recovered a fault-stranded
	// task onto a worse-matching variant than it originally held.
	Degraded *Degradation
}

// Degradation names the QoS lost when a task was recovered onto a
// lower-ranked variant — the application sees *what* it gave up, not
// just that something changed.
type Degradation struct {
	FromImpl casebase.ImplID
	ToImpl   casebase.ImplID
	FromSim  float64
	ToSim    float64
	// LostAttrs are the requested attributes whose local similarity
	// dropped in the substitute variant.
	LostAttrs []attr.ID
}

// ErrNoFeasible is returned when retrieval produced matches but none
// could be placed; Alternatives carries the scored candidates so the
// calling application can decide ("an alternative implementation can be
// offered to the calling application which has to decide on it", §2).
type ErrNoFeasible struct {
	Alternatives []retrieval.Result
}

func (e *ErrNoFeasible) Error() string {
	return fmt.Sprintf("alloc: no feasible implementation (%d matching variants, all without capacity)",
		len(e.Alternatives))
}

// Unwrap makes errors.Is(err, ErrNoViableVariant) work.
func (e *ErrNoFeasible) Unwrap() error { return ErrNoViableVariant }

// DegradationReport is the structured rejection of the degrade-and-retry
// policy: a fault stranded the task, retrieval was re-run excluding the
// failed targets, the whole similarity-ranked N-best list was walked, and
// nothing fit. It names the QoS attributes the application lost so the
// caller can renegotiate rather than guess.
type DegradationReport struct {
	App  string
	Task rtsys.TaskID
	Req  casebase.Request
	// Excluded are target classes with no device able to accept work.
	Excluded []casebase.Target
	// Tried are the candidates examined, best-first.
	Tried []retrieval.Result
	// LostAttrs are the requested attributes that could not be honored
	// by any placeable variant.
	LostAttrs []attr.ID
}

func (r *DegradationReport) Error() string {
	return fmt.Sprintf("alloc: task %d (%s) rejected after degrade-and-retry: %d candidates tried, %d targets excluded, %d QoS attributes lost",
		r.Task, r.App, len(r.Tried), len(r.Excluded), len(r.LostAttrs))
}

// Unwrap makes errors.Is(err, ErrNoViableVariant) work.
func (r *DegradationReport) Unwrap() error { return ErrNoViableVariant }

// Recovery is the outcome of degrade-and-retry for one fault-stranded
// task: exactly one of Decision (re-placed, possibly degraded) or Report
// (rejected with the structured degradation report) is set.
type Recovery struct {
	Task     rtsys.TaskID
	App      string
	Decision *Decision
	Report   *DegradationReport
}

// Stats counts manager activity.
type Stats struct {
	Requests    int
	TokenHits   int
	Retrievals  int
	Placed      int
	Preemptions int
	Rejected    int // threshold rejections (whole requests)
	Infeasible  int

	// Degrade-and-retry counters.
	Recovered     int // fault-stranded tasks re-placed
	Degraded      int // …of which on a worse-matching variant
	FaultRejected int // stranded tasks rejected with a DegradationReport
}

// origin remembers, per live task, the request and variant the manager
// granted — the input to degrade-and-retry when a fault strands it.
type origin struct {
	app  string
	req  casebase.Request
	impl casebase.ImplID
	sim  float64
}

// Manager is the function-allocation manager: the thin composition of
// the pure policy package (which candidate, which victim, what was
// lost) with the Mechanism execution layer (resolve records, snapshot
// devices, place and preempt). All bookkeeping that spans both —
// counters, metrics, bypass tokens, task origins — lives here.
type Manager struct {
	mech    *Mechanism
	engine  *retrieval.Engine
	sys     *rtsys.System
	tokens  *retrieval.TokenCache
	opt     Options
	counts  counts
	met     *metrics
	origins map[rtsys.TaskID]origin
}

// New builds a manager that retrieves on eng, over eng's case base, and
// places on sys. Requests, recovery and degradation accounting all walk
// eng, so its measures and threshold are the manager's.
func New(eng *retrieval.Engine, sys *rtsys.System, opt Options) *Manager {
	if opt.NBest <= 0 {
		opt.NBest = DefaultNBest
	}
	return &Manager{
		mech:    NewMechanism(eng.CaseBase(), sys),
		engine:  eng,
		sys:     sys,
		tokens:  retrieval.NewTokenCache(),
		opt:     opt,
		met:     newMetrics(nil),
		origins: make(map[rtsys.TaskID]origin),
	}
}

// Instrument registers the manager's own metric set on reg. The engine,
// the run-time system and the devices have their own Instrument hooks;
// whoever builds them instruments them, so each layer's metrics can go
// to the same or different registries.
func (m *Manager) Instrument(reg *obs.Registry) {
	m.met = newMetrics(reg)
	m.counts.attach(reg)
}

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats {
	c := &m.counts
	return Stats{
		Requests: int(c.requests.Load()), TokenHits: int(c.tokenHits.Load()),
		Retrievals: int(c.retrievals.Load()), Placed: int(c.placed.Load()),
		Preemptions: int(c.preemptions.Load()), Rejected: int(c.rejected.Load()),
		Infeasible: int(c.infeasible.Load()), Recovered: int(c.recovered.Load()),
		Degraded: int(c.degraded.Load()), FaultRejected: int(c.faultRejected.Load()),
	}
}

// System returns the underlying run-time system.
func (m *Manager) System() *rtsys.System { return m.sys }

// Engine returns the retrieval engine the manager walks.
func (m *Manager) Engine() *retrieval.Engine { return m.engine }

// Request allocates an implementation for a QoS function request on
// behalf of app with the given base priority. On success the chosen
// variant is placed and a task handle returned; the application still
// has to advance the run-time clock past Decision.ReadyAt before the
// function is usable. With UseBypassTokens on, a successful placement
// pins its choice in the manager's bypass token for req;
// this is the one place the manager stores a token.
func (m *Manager) Request(app string, req casebase.Request, basePrio int) (*Decision, error) {
	m.counts.requests.Inc()

	// Bypass-token shortcut: a repeated call with the same request
	// skips retrieval; "only an availability check on the function and
	// its allocated resources has to be done" (§3).
	var h uint64
	if m.opt.UseBypassTokens {
		h = retrieval.Hash(req)
		if tok, ok := m.tokens.Lookup(h, req); ok {
			if d, err := m.tryPlace(app, req, tok.Impl, tok.Similarity, basePrio); err == nil {
				m.counts.tokenHits.Inc()
				m.met.event(int64(m.sys.Now()), "token-hit", "app=%s task=%d impl=%d dev=%s", app, d.Task.ID, d.Impl, d.Device)
				d.ViaToken = true
				return d, nil
			}
			// Token's variant is momentarily infeasible; fall
			// through to full retrieval.
		}
	}

	m.counts.retrievals.Inc()
	candidates, err := m.engine.RetrieveN(req, m.opt.NBest)
	if err != nil {
		var nm *retrieval.ErrNoMatch
		if errors.As(err, &nm) {
			m.counts.rejected.Inc()
			m.met.event(int64(m.sys.Now()), "threshold-reject", "app=%s type=%d best=%.3f", app, req.Type, nm.Best)
		}
		return nil, err
	}
	d, err := m.placeCandidates(app, req, candidates, basePrio)
	if err == nil && m.opt.UseBypassTokens {
		m.tokens.Store(h, req, retrieval.Token{Type: req.Type, Impl: d.Impl, Similarity: d.Similarity})
	}
	return d, err
}

// PlaceCandidates is the placement half of Request for callers that run
// retrieval on their own engines — the serve layer retrieves on sharded,
// deduplicated engines and feeds the candidate lists here. The list must
// be similarity-ranked best first (the order RetrieveN returns); the
// manager applies its power ranking, walks feasibility and optionally
// preempts. It stores no bypass token: the caller retrieved, so the
// caller owns any token for the request (serve keeps them per shard).
// Counted as a request in Stats; the caller owns the slice (it may be
// re-ordered in place).
func (m *Manager) PlaceCandidates(app string, req casebase.Request, candidates []retrieval.Result, basePrio int) (*Decision, error) {
	m.counts.requests.Inc()
	return m.placeCandidates(app, req, candidates, basePrio)
}

// placeCandidates walks a similarity-ranked candidate list: feasibility
// check best first, then preemption, then the structured infeasibility
// error carrying the alternatives.
func (m *Manager) placeCandidates(app string, req casebase.Request, candidates []retrieval.Result, basePrio int) (*Decision, error) {
	m.mech.RankForPower(req.Type, candidates, m.opt.PowerWeight)

	// Feasibility check, best candidate first.
	for depth, cand := range candidates {
		d, err := m.tryPlace(app, req, cand.Impl, cand.Similarity, basePrio)
		if err == nil {
			m.met.nbestDepth.Observe(int64(depth + 1))
			m.met.event(int64(m.sys.Now()), "place", "app=%s task=%d impl=%d dev=%s depth=%d", app, d.Task.ID, d.Impl, d.Device, depth+1)
			return d, nil
		}
	}

	// Nothing placeable without preemption; try evicting strictly
	// lower-priority work for the best candidate.
	if m.opt.AllowPreemption {
		if d, err := m.tryPreemptivePlace(app, req, candidates, basePrio); err == nil {
			return d, nil
		}
	}

	m.counts.infeasible.Inc()
	m.met.event(int64(m.sys.Now()), "infeasible", "app=%s type=%d candidates=%d", app, req.Type, len(candidates))
	return nil, &ErrNoFeasible{Alternatives: candidates}
}

// tryPlace attempts to place an implementation on any device of its
// target class with free capacity: the mechanism executes, the manager
// keeps the books (stats, origins, the Decision).
func (m *Manager) tryPlace(app string, req casebase.Request, id casebase.ImplID, sim float64, basePrio int) (*Decision, error) {
	im, err := m.mech.ImplOf(req.Type, id)
	if err != nil {
		return nil, err
	}
	task, dev, err := m.mech.TryPlace(app, req.Type, im, basePrio)
	if err != nil {
		return nil, err
	}
	m.counts.placed.Inc()
	m.origins[task.ID] = origin{app: app, req: req, impl: id, sim: sim}
	return &Decision{
		Task: task, Impl: id, Target: im.Target, Device: dev.Name(),
		Similarity: sim, ReadyAt: task.ReadyAt,
	}, nil
}

// tryPreemptivePlace evicts the lowest-priority strictly-lower-priority
// victim that frees enough capacity for the best-ranked candidate.
func (m *Manager) tryPreemptivePlace(app string, req casebase.Request, candidates []retrieval.Result, basePrio int) (*Decision, error) {
	for _, cand := range candidates {
		im, err := m.mech.ImplOf(req.Type, cand.Impl)
		if err != nil {
			continue
		}
		for _, dev := range m.sys.DevicesByKind(im.Target) {
			victim := m.mech.LowestVictim(dev, basePrio)
			if victim == nil {
				continue
			}
			if err := m.sys.Preempt(victim); err != nil {
				continue
			}
			m.counts.preemptions.Inc()
			m.met.event(int64(m.sys.Now()), "preempt", "victim=%d dev=%s for app=%s", victim.ID, dev.Name(), app)
			if !dev.CanPlace(im.Foot) {
				// Even the freed capacity is not enough; the
				// victim stays preempted and will re-bid with
				// aged priority via ReplacePending.
				continue
			}
			d, err := m.tryPlace(app, req, cand.Impl, cand.Similarity, basePrio)
			if err != nil {
				continue
			}
			d.Preempted = append(d.Preempted, victim.ID)
			return d, nil
		}
	}
	return nil, fmt.Errorf("alloc: preemption found no viable victim")
}

// Release completes a task and invalidates nothing: bypass tokens stay
// valid because the variant choice is still correct for the request.
func (m *Manager) Release(id rtsys.TaskID) error {
	issued, err := m.sys.CompleteID(id)
	if !issued {
		return fmt.Errorf("alloc: unknown task %d", id)
	}
	if err != nil {
		return fmt.Errorf("alloc: release task %d: %w", id, err)
	}
	delete(m.origins, id)
	return nil
}

// ReplacePending sweeps preempted tasks in descending aged priority and
// tries to re-place them on their previously chosen implementation —
// the recovery half of the preemption story. It returns how many tasks
// came back.
func (m *Manager) ReplacePending() int {
	placed := 0
	for {
		best := m.mech.BestWaiting()
		if best == nil {
			return placed
		}
		im, err := m.mech.ImplOf(best.Type, best.Impl)
		if err != nil {
			return placed
		}
		if _, ok := m.mech.PlaceExisting(best, im); !ok {
			return placed
		}
		placed++
	}
}

// UpdateCaseBase swaps in an engine over a revised case base — the §5
// dynamic update, produced by the learn package's Builder. Every bypass
// token is invalidated, since pinned selections may no longer be the
// best match. Tasks already placed keep running; only future requests
// see the new tree.
func (m *Manager) UpdateCaseBase(eng *retrieval.Engine) {
	m.mech = NewMechanism(eng.CaseBase(), m.sys)
	m.engine = eng
	m.tokens.InvalidateAll()
}

// --- Degrade-and-retry recovery ---------------------------------------

// RecoverFromFaults sweeps every fault-stranded task — Failed (retries
// exhausted) or auto-re-queued Pending with a fault count — and runs the
// degrade-and-retry policy on each: re-run CBR retrieval excluding
// targets with no surviving device, walk the similarity-ranked N-best
// list until a variant fits, and otherwise reject the task with a
// structured DegradationReport. Every stranded task gets exactly one
// Recovery; none is silently dropped.
func (m *Manager) RecoverFromFaults() []Recovery {
	var out []Recovery
	m.mech.SweepStranded(func(t *rtsys.Task) { out = append(out, m.recoverTask(t)) })
	return out
}

// recoverTask runs degrade-and-retry for one re-queued task.
func (m *Manager) recoverTask(t *rtsys.Task) Recovery {
	rec := Recovery{Task: t.ID, App: t.App}
	org, known := m.origins[t.ID]
	if !known {
		// The task was placed around the manager; all we know is its
		// type. Recover with an unconstrained request.
		org = origin{app: t.App, req: casebase.NewRequest(t.Type), impl: t.Impl}
	}
	excluded := m.mech.ExcludedTargets()
	// The N best with their breakdowns, threshold not applied.
	all, err := m.engine.RetrieveAll(org.req)
	if err != nil {
		rec.Report = m.reject(t, org, excluded, nil)
		return rec
	}
	candidates := all[:min(m.opt.NBest, len(all))]
	m.mech.RankForPower(org.req.Type, candidates, m.opt.PowerWeight)
	tried, im, dev := m.mech.Reseat(t, org.req.Type, candidates, excluded)
	if dev == nil {
		rec.Report = m.reject(t, org, excluded, tried)
		return rec
	}
	cand := tried[len(tried)-1]
	m.counts.recovered.Inc()
	m.met.nbestDepth.Observe(int64(len(tried)))
	m.met.event(int64(m.sys.Now()), "recover", "task=%d impl=%d dev=%s", t.ID, cand.Impl, dev.Name())
	rec.Decision = &Decision{
		Task: t, Impl: cand.Impl, Target: im.Target, Device: dev.Name(),
		Similarity: cand.Similarity, ReadyAt: t.ReadyAt,
	}
	if known {
		if deg := Degraded(all, org.impl, org.sim, cand); deg != nil {
			m.counts.degraded.Inc()
			m.met.event(int64(m.sys.Now()), "degrade", "task=%d impl %d->%d sim %.3f->%.3f", t.ID, org.impl, cand.Impl, org.sim, cand.Similarity)
			rec.Decision.Degraded = deg
		}
	}
	m.origins[t.ID] = origin{app: org.app, req: org.req, impl: cand.Impl, sim: cand.Similarity}
	return rec
}

// reject finalizes a stranded task the policy could not re-place: the
// task is completed (the application cannot call the function, §3) and a
// structured report names what was lost.
func (m *Manager) reject(t *rtsys.Task, org origin, excluded []casebase.Target, tried []retrieval.Result) *DegradationReport {
	m.counts.faultRejected.Inc()
	m.met.event(int64(m.sys.Now()), "fault-reject", "task=%d app=%s tried=%d excluded=%d", t.ID, org.app, len(tried), len(excluded))
	rep := &DegradationReport{
		App: org.app, Task: t.ID, Req: org.req,
		Excluded: excluded, Tried: tried,
		LostAttrs: policy.RejectedAttrs(org.req, tried),
	}
	_ = m.sys.Complete(t)
	delete(m.origins, t.ID)
	return rep
}

// Degraded reports what recovering a task from variant from, granted
// at similarity fromSim, onto the substitute to cost the application,
// or nil when to is the same variant or nothing got worse
// (policy.IsDegradation). all is the recovery's RetrieveAll list for the
// task's request, so the per-attribute breakdowns policy.LostAttrs
// compares use the measures the candidates were ranked by; its order
// does not matter.
func Degraded(all []retrieval.Result, from casebase.ImplID, fromSim float64, to retrieval.Result) *Degradation {
	if to.Impl == from {
		return nil
	}
	locals := func(id casebase.ImplID) []retrieval.LocalScore {
		for _, r := range all {
			if r.Impl == id {
				return r.Locals
			}
		}
		return nil
	}
	lost := policy.LostAttrs(locals(from), locals(to.Impl))
	if !policy.IsDegradation(fromSim, to.Similarity, lost) {
		return nil
	}
	return &Degradation{
		FromImpl: from, ToImpl: to.Impl,
		FromSim: fromSim, ToSim: to.Similarity,
		LostAttrs: lost,
	}
}
