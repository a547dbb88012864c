package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qosalloc"
	"qosalloc/internal/admit"
	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/fault"
	"qosalloc/internal/obs"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/serve"
	"qosalloc/internal/wire"
	"qosalloc/internal/workload"
)

// options is the daemon configuration assembled from flags. The
// case-base spec defaults here are the contract qosload mirrors: both
// sides generate the same synthetic case base from the same seed, so
// the harness knows which function types and attributes exist.
type options struct {
	addr string

	// Service shape.
	shards     int
	maxBatch   int
	maxQueue   int
	threshold  float64
	preemption bool

	// Synthetic case base (shared contract with qosload).
	types        int
	implsPerType int
	attrsPerImpl int
	attrUniverse int
	cbSeed       int64

	// Admission.
	ratePerSec int64
	burst      int64

	// Breaker.
	brkWindow       int
	brkRatio        float64
	brkMinSamples   int
	brkBackoffUS    uint64
	brkMaxBackoffUS uint64

	// Scripted fault plan (at:kind:device[:slot];... in sim µs).
	faults string

	// Multi-tenant QoS classes: tenant→class bindings
	// ("alice=gold,bob=bronze") and class budgets
	// ("gold=slices:2000,brams:8;bronze=cfgbps:65536"). Empty means
	// every tenant is unmetered. Requests name their tenant in the
	// X-QoS-Tenant header.
	tenants string
	classes string

	// Live case-base mutation: POST /v1/observe|retain|retire commit
	// through the service's epoch snapshot pipeline. Off by default —
	// mutation requests then get a typed 403 learning_off.
	learn         bool
	learnAlpha    float64
	learnFold     int
	learnMaxAgeUS uint64

	// lockstep takes the admission clock from the X-QoS-Now request
	// header (sim µs) instead of the wall clock, making admission
	// decisions replayable bit-for-bit for a fixed request schedule.
	lockstep bool

	requestTimeout time.Duration
	drainTimeout   time.Duration
}

func defaultOptions() options {
	return options{
		addr:           "127.0.0.1:7333",
		shards:         4,
		maxBatch:       16,
		maxQueue:       64,
		types:          12,
		implsPerType:   6,
		attrsPerImpl:   5,
		attrUniverse:   8,
		cbSeed:         42,
		ratePerSec:     admit.DefaultRatePerSec,
		burst:          admit.DefaultBurst,
		brkWindow:      admit.DefaultWindow,
		brkRatio:       admit.DefaultTripRatio,
		brkMinSamples:  admit.DefaultMinSamples,
		learnAlpha:     serve.DefaultAlpha,
		learnFold:      serve.DefaultFoldThreshold,
		preemption:     true,
		requestTimeout: 2 * time.Second,
		drainTimeout:   10 * time.Second,
	}
}

// nowHeader is the lockstep admission-clock request header (sim µs).
const nowHeader = "X-QoS-Now"

// tenantHeader names the requesting tenant for QoS-class budget
// attribution; absent means unmetered.
const tenantHeader = "X-QoS-Tenant"

// daemon is the qosd server state: the allocation service behind an
// admission gate, a fault injector feeding the gate's breakers, and
// the drain fence the SIGTERM path uses.
type daemon struct {
	opt  options
	svc  *qosalloc.Service
	rt   *qosalloc.Runtime
	gate *admit.Gate
	inj  *qosalloc.FaultInjector
	reg  *obs.Registry
	met  *daemonMetrics
	mux  *http.ServeMux

	start  time.Time     // wall epoch for the open-mode sim clock
	simNow atomic.Uint64 // high-water admission clock (sim µs)

	// drainMu fences request admission against the drain: handlers
	// hold RLock across the draining check and the inflight.Add, the
	// drain holds Lock to raise the flag — a request either lands
	// before the drain waits or is refused, never half-admitted.
	drainMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	holdMu sync.Mutex
	holds  []hold // auto-release deadlines, kept sorted by at

	// ledger enforces tenant QoS-class budgets. tasks is the task
	// table: one record per task the daemon placed and still holds, so
	// a release can be checked against the task's owner and a metered
	// task's charge returned when the task goes away (explicit or
	// hold-driven release, fault rejection).
	ledger  *admit.Ledger
	tasksMu sync.Mutex
	tasks   map[qosalloc.TaskID]task

	// preServe, when set (tests only), runs after admission and before
	// the service call — a hook to wedge an in-flight request.
	preServe func()
}

// hold is one auto-release obligation from an allocate with hold_us.
type hold struct {
	at device.Micros
	id qosalloc.TaskID
}

// task is one placed task's record: the client that placed it and,
// when the request named a tenant, the tenant and the footprint
// charged to its budget.
type task struct {
	client string
	tenant string
	foot   casebase.Footprint
}

// daemonMetrics is the qos_qosd_* bundle. The registry is always
// non-nil in the daemon; the bundle exists so handler code never
// mentions the registry. The per-endpoint request counters belong to
// the pipeline's routes.
type daemonMetrics struct {
	ok       *obs.Counter
	clientEr *obs.Counter
	serverEr *obs.Counter
	released *obs.Counter
	draining *obs.Gauge
}

func newDaemonMetrics(reg *obs.Registry) *daemonMetrics {
	return &daemonMetrics{
		ok:       reg.Counter("qos_qosd_responses_total{class=\"2xx\"}", "successful responses"),
		clientEr: reg.Counter("qos_qosd_responses_total{class=\"4xx\"}", "client-error responses (bad request, shed, no match)"),
		serverEr: reg.Counter("qos_qosd_responses_total{class=\"5xx\"}", "server-error responses (breaker, draining, deadline, internal)"),
		released: reg.Counter("qos_qosd_holds_released_total", "tasks auto-released after their hold_us elapsed"),
		draining: reg.Gauge("qos_qosd_draining", "1 once SIGTERM drain has begun"),
	}
}

// newDaemon builds the full serving stack from opt: synthetic case
// base, fig. 1-style platform, allocation service, admission gate, and
// the fault injector wired into the gate's breakers.
func newDaemon(opt options) (*daemon, error) {
	cb, _, err := qosalloc.GenCaseBase(qosalloc.CaseBaseSpec{
		Types: opt.types, ImplsPerType: opt.implsPerType,
		AttrsPerImpl: opt.attrsPerImpl, AttrUniverse: opt.attrUniverse,
		Seed: opt.cbSeed,
	})
	if err != nil {
		return nil, err
	}
	repo := qosalloc.NewRepository(20)
	if err := repo.PopulateFromCaseBase(cb); err != nil {
		return nil, err
	}
	rt := qosalloc.NewRuntime(repo,
		qosalloc.NewFPGADevice("fpga0", []qosalloc.FPGASlot{
			{Slices: 1500, BRAMs: 8, Multipliers: 16},
			{Slices: 1500, BRAMs: 8, Multipliers: 16},
			{Slices: 1500, BRAMs: 8, Multipliers: 16},
		}, 66),
		qosalloc.NewProcessorDevice("dsp0", qosalloc.TargetDSP, 2000, 1<<20),
		qosalloc.NewProcessorDevice("gpp0", qosalloc.TargetGPP, 2000, 1<<21),
	)
	plan, err := qosalloc.ParseFaultPlan(opt.faults)
	if err != nil {
		return nil, err
	}
	ledger := admit.NewLedger()
	if opt.classes != "" {
		budgets, err := admit.ParseClassBudgets(opt.classes)
		if err != nil {
			return nil, err
		}
		for class, b := range budgets {
			ledger.DefineClass(class, b)
		}
	}
	if opt.tenants != "" {
		specs, err := workload.ParseTenantMix(opt.tenants)
		if err != nil {
			return nil, err
		}
		for _, t := range specs {
			ledger.BindTenant(t.ID, admit.QoSClass(t.Class))
		}
	}

	reg := obs.NewRegistry()
	d := &daemon{
		opt:    opt,
		rt:     rt,
		reg:    reg,
		met:    newDaemonMetrics(reg),
		start:  time.Now(),
		ledger: ledger,
		tasks:  make(map[qosalloc.TaskID]task),
	}
	svcOpts := []qosalloc.Option{
		qosalloc.WithShards(opt.shards),
		qosalloc.WithMaxBatch(opt.maxBatch),
		qosalloc.WithMaxQueue(opt.maxQueue),
		qosalloc.WithThreshold(opt.threshold),
		qosalloc.WithPreemption(opt.preemption),
		qosalloc.WithRegistry(reg),
	}
	if opt.learn {
		svcOpts = append(svcOpts, qosalloc.WithLearning(
			opt.learnAlpha, opt.learnFold, qosalloc.Micros(opt.learnMaxAgeUS)))
	}
	d.svc = qosalloc.NewService(cb, rt, svcOpts...)
	d.gate = admit.NewGate(admit.GateConfig{
		Shards:  d.svc.Shards(),
		Limiter: admit.LimiterConfig{RatePerSec: opt.ratePerSec, Burst: opt.burst},
		Breaker: admit.BreakerConfig{
			Window: opt.brkWindow, TripRatio: opt.brkRatio,
			MinSamples: opt.brkMinSamples,
			Backoff:    device.Micros(opt.brkBackoffUS),
			MaxBackoff: device.Micros(opt.brkMaxBackoffUS),
		},
	}, reg)
	d.inj = qosalloc.NewFaultInjector(rt, plan)
	d.inj.Instrument(reg)
	rt.Instrument(reg)
	// Platform faults feed the breakers: a fault that stranded tasks
	// hits the shards those tasks' function types route to; a fault
	// with no victim still signals the device and lands on every shard
	// (the platform shrank for all of them).
	d.inj.Subscribe(func(a fault.Applied) {
		now := rt.Now()
		shards := make(map[int]bool)
		for _, id := range a.Affected {
			if t, ok := rt.Task(id); ok {
				shards[d.gate.Shard(t.Type)] = true
			}
		}
		if len(shards) == 0 {
			for i := 0; i < d.gate.Shards(); i++ {
				shards[i] = true
			}
		}
		// Deterministic feed order (detlint: no order-dependent writes
		// from map iteration).
		idxs := make([]int, 0, len(shards))
		for i := range shards {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			d.gate.RecordFault(i, now)
		}
	})

	d.mux = http.NewServeMux()
	pipeline(d, "retrieve", endpoint[*wire.AllocRequest]{
		decode: d.decodeAlloc, clock: true, route: allocRoute, call: d.retrieve})
	pipeline(d, "allocate", endpoint[*wire.AllocRequest]{
		decode: d.decodeAlloc, clock: true, route: allocRoute, call: d.allocate})
	pipeline(d, "release", endpoint[*wire.ReleaseRequest]{
		decode: wire.DecodeReleaseRequest, call: d.release})
	pipeline(d, "observe", endpoint[*wire.ObserveRequest]{
		decode: wire.DecodeObserveRequest, clock: true, call: d.observe})
	pipeline(d, "retain", endpoint[*wire.RetainRequest]{
		decode: wire.DecodeRetainRequest, clock: true, call: d.retain})
	pipeline(d, "retire", endpoint[*wire.RetireRequest]{
		decode: wire.DecodeRetireRequest, clock: true, call: d.retire})
	d.mux.HandleFunc("GET /metrics", d.handleMetrics)
	d.mux.HandleFunc("GET /statz", d.handleStatz)
	d.mux.HandleFunc("GET /healthz", d.handleHealthz)
	return d, nil
}

// now resolves the admission clock for one request: the X-QoS-Now
// header in lockstep mode (required), wall µs since daemon start
// otherwise. The returned time also advances the platform (applying
// due faults) when it moves the high-water mark forward.
func (d *daemon) now(r *http.Request) (device.Micros, error) {
	var now device.Micros
	if d.opt.lockstep {
		h := r.Header.Get(nowHeader)
		if h == "" {
			return 0, fmt.Errorf("%w: lockstep mode requires the %s header", wire.ErrBadRequest, nowHeader)
		}
		v, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%w: bad %s header %q: %v", wire.ErrBadRequest, nowHeader, h, err)
		}
		now = device.Micros(v)
	} else {
		now = device.Micros(time.Since(d.start) / time.Microsecond)
	}
	d.advanceTo(now)
	return now, nil
}

// advanceTo moves the platform's sim clock to now (monotonically),
// applying due scripted faults and recovering stranded tasks under the
// service's exclusive section, then returns the budget charges of the
// tasks recovery rejected and settles due auto-releases.
func (d *daemon) advanceTo(now device.Micros) {
	for {
		cur := d.simNow.Load()
		if uint64(now) <= cur {
			return
		}
		if d.simNow.CompareAndSwap(cur, uint64(now)) {
			break
		}
	}
	var rejected []qosalloc.TaskID
	d.svc.Exclusive(func() {
		// Exclusive serializes; re-check against the system clock in
		// case a racing later advance already passed this target.
		if now <= d.rt.Now() {
			return
		}
		if _, err := d.inj.AdvanceTo(now); err != nil {
			return
		}
		for _, rec := range d.svc.Manager().RecoverFromFaults() {
			if rec.Report != nil {
				rejected = append(rejected, rec.Task)
			}
		}
	})
	// A rejected task is done, so its client's release will fail and
	// never reach forget.
	for _, id := range rejected {
		d.forget(id)
	}
	d.releaseDue(now)
}

// releaseDue releases tasks whose hold window has elapsed.
func (d *daemon) releaseDue(now device.Micros) {
	d.holdMu.Lock()
	var due []qosalloc.TaskID
	i := 0
	for ; i < len(d.holds) && d.holds[i].at <= now; i++ {
		due = append(due, d.holds[i].id)
	}
	d.holds = d.holds[i:]
	d.holdMu.Unlock()
	for _, id := range due {
		// The task may already be gone (preempted, fault-rejected,
		// explicitly released); that is not an error for the hold path.
		// Either way the hold window is over, so the tenant's budget
		// charge is returned.
		if err := d.svc.Release(id); err == nil {
			d.met.released.Inc()
		}
		d.forget(id)
	}
}

// addHold schedules an auto-release, keeping holds sorted by deadline.
func (d *daemon) addHold(at device.Micros, id qosalloc.TaskID) {
	d.holdMu.Lock()
	defer d.holdMu.Unlock()
	d.holds = append(d.holds, hold{at: at, id: id})
	sort.Slice(d.holds, func(i, j int) bool { return d.holds[i].at < d.holds[j].at })
}

// charge draws the placed variant's footprint from the tenant's
// QoS-class budget and returns the task's record for the table.
// Anonymous or unbound tenants are unmetered (Ledger.Admit's contract).
func (d *daemon) charge(client, tenant string, ty casebase.TypeID, dec *qosalloc.Decision, now device.Micros) (task, error) {
	rec := task{client: client}
	if tenant == "" {
		return rec, nil
	}
	// Footprints come from the committed epoch's tree: with -learn a
	// commit may have revised the variant since the service started.
	ft, ok := d.svc.CaseBase().Type(ty)
	if !ok {
		return rec, nil // validated earlier; belt and braces
	}
	im, ok := ft.Impl(dec.Impl)
	if !ok {
		return rec, nil
	}
	if err := d.ledger.Admit(tenant, im.Foot, now); err != nil {
		return rec, err
	}
	rec.tenant, rec.foot = tenant, im.Foot
	return rec, nil
}

// forget drops a released (or otherwise gone) task from the task table
// and returns its charge to its tenant's budget. Safe to call for
// tasks the table no longer holds.
func (d *daemon) forget(id qosalloc.TaskID) {
	d.tasksMu.Lock()
	rec, ok := d.tasks[id]
	delete(d.tasks, id)
	d.tasksMu.Unlock()
	if ok && rec.tenant != "" {
		d.ledger.Release(rec.tenant, rec.foot)
	}
}

// begin admits one HTTP request past the drain fence. Every true
// return must be paired with d.inflight.Done().
func (d *daemon) begin() bool {
	d.drainMu.RLock()
	defer d.drainMu.RUnlock()
	if d.draining {
		return false
	}
	d.inflight.Add(1)
	return true
}

// --- Request pipeline ---------------------------------------------------

// endpoint is one POST route as the pipeline runs it. Req is the
// decoded body.
type endpoint[Req any] struct {
	// decode reads and validates the body; its errors wrap
	// wire.ErrBadRequest.
	decode func(io.Reader) (Req, error)
	// clock reads the admission clock after decode.
	clock bool
	// route, when set, names the client and function type the gate
	// admits the request under. A gated call runs under the request
	// timeout, and its outcome feeds the shard's breaker.
	route func(Req) (client string, ty casebase.TypeID)
	// call answers the request with the body writeOK encodes. It
	// reads only the headers of r, never its body.
	call func(ctx context.Context, r *http.Request, req Req, now device.Micros) (any, error)
}

// pipeline registers POST /v1/<name>. Every request runs the same
// stages in order: the endpoint's request counter and the drain fence,
// body decode, the admission clock, the gate (routed endpoints only),
// the call, and the reply — writeOK, or the error mapError maps.
func pipeline[Req any](d *daemon, name string, ep endpoint[Req]) {
	requests := d.reg.Counter(fmt.Sprintf("qos_qosd_requests_total{endpoint=%q}", name), "requests to /v1/"+name)
	d.mux.HandleFunc("POST /v1/"+name, func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		if !d.begin() {
			d.writeError(w, serve.ErrDraining)
			return
		}
		defer d.inflight.Done()
		out, err := ep.run(d, r)
		if err != nil {
			d.writeError(w, err)
			return
		}
		d.writeOK(w, out)
	})
}

// run takes one fenced request from decode through the call.
func (ep endpoint[Req]) run(d *daemon, r *http.Request) (any, error) {
	req, err := ep.decode(r.Body)
	if err != nil {
		return nil, err
	}
	var now device.Micros
	if ep.clock {
		if now, err = d.now(r); err != nil {
			return nil, err
		}
	}
	if ep.route == nil {
		return ep.call(r.Context(), r, req, now)
	}
	client, ty := ep.route(req)
	shard := d.gate.Shard(ty)
	if err := d.gate.Admit(client, shard, now); err != nil {
		return nil, err
	}
	if d.preServe != nil {
		d.preServe()
	}
	ctx, cancel := context.WithTimeout(r.Context(), d.opt.requestTimeout)
	defer cancel()
	out, err := ep.call(ctx, r, req, now)
	d.gate.Record(shard, now, breakerFailure(err))
	return out, err
}

// allocRoute gates retrieve and allocate requests under their client
// and function type.
func allocRoute(req *wire.AllocRequest) (string, casebase.TypeID) {
	return req.Client, casebase.TypeID(req.Type)
}

// decodeAlloc reads a retrieve or allocate body and validates it
// against the committed epoch's tree. An unknown type or a value
// outside an attribute's design bounds is the client's fault, so it is
// a bad request here rather than an internal error out of the engine.
func (d *daemon) decodeAlloc(body io.Reader) (*wire.AllocRequest, error) {
	req, err := wire.DecodeAllocRequest(body)
	if err != nil {
		return nil, err
	}
	if err := req.Request().Validate(d.svc.CaseBase()); err != nil {
		return nil, fmt.Errorf("%w: %v", wire.ErrBadRequest, err)
	}
	return req, nil
}

func (d *daemon) retrieve(ctx context.Context, _ *http.Request, req *wire.AllocRequest, _ device.Micros) (any, error) {
	res, err := d.svc.Retrieve(ctx, req.Request())
	if err != nil {
		return nil, err
	}
	return wire.RetrieveResponse{
		Type: uint16(res.Type), Impl: uint16(res.Impl),
		Target: res.Target.String(), Name: res.Name, Similarity: res.Similarity,
	}, nil
}

func (d *daemon) allocate(ctx context.Context, r *http.Request, req *wire.AllocRequest, now device.Micros) (any, error) {
	app := req.App
	if app == "" {
		app = req.Client
	}
	dec, err := d.svc.Allocate(ctx, app, req.Request(), req.Priority)
	if err != nil {
		return nil, err
	}
	// Charge the tenant's QoS-class budget for the variant the service
	// actually placed. An over-budget charge rolls the placement back
	// atomically — the tenant sees a typed 429 and the platform is as
	// if the request never landed.
	rec, err := d.charge(req.Client, r.Header.Get(tenantHeader), casebase.TypeID(req.Type), dec, now)
	if err != nil {
		_ = d.svc.Release(dec.Task.ID)
		return nil, err
	}
	d.tasksMu.Lock()
	d.tasks[dec.Task.ID] = rec
	d.tasksMu.Unlock()
	if req.HoldUS > 0 {
		d.addHold(dec.ReadyAt+device.Micros(req.HoldUS), dec.Task.ID)
	}
	return wire.AllocResponse{
		Task: int(dec.Task.ID), Type: uint16(req.Type), Impl: uint16(dec.Impl),
		Target: dec.Target.String(), Device: string(dec.Device),
		Similarity: dec.Similarity, ReadyAtUS: uint64(dec.ReadyAt),
		ViaToken: dec.ViaToken, Degraded: dec.Degraded != nil,
	}, nil
}

// release frees a task its client placed. A task placed by another
// client gets the same reply as one never issued, and survives with
// its charge.
func (d *daemon) release(_ context.Context, _ *http.Request, req *wire.ReleaseRequest, _ device.Micros) (any, error) {
	id := qosalloc.TaskID(req.Task)
	d.tasksMu.Lock()
	rec, ok := d.tasks[id]
	d.tasksMu.Unlock()
	if !ok || rec.client != req.Client {
		return nil, fmt.Errorf("%w %d", errUnknownTask, id)
	}
	if err := d.svc.Release(id); err != nil {
		return nil, fmt.Errorf("%w: %v", errUnknownTask, err)
	}
	d.forget(id)
	return map[string]any{"released": req.Task}, nil
}

// observe folds one run-time QoS measurement into the service's
// deferred net-commit layer. The observation itself never blocks
// readers; when it trips the fold policy the commit happens inline and
// the response's epoch reflects it.
func (d *daemon) observe(_ context.Context, _ *http.Request, req *wire.ObserveRequest, _ device.Micros) (any, error) {
	if err := d.checkVariant(req.Type, req.Impl, req.Measured); err != nil {
		return nil, err
	}
	if err := d.svc.Observe(req.Observation()); err != nil {
		return nil, err
	}
	st := d.svc.EpochStats()
	return wire.ObserveResponse{
		Epoch: st.Epoch, PendingRevs: st.PendingRevs, PendingObs: st.PendingObs,
	}, nil
}

// retain commits a new implementation variant through the epoch
// snapshot pipeline and registers its configuration blob.
func (d *daemon) retain(_ context.Context, _ *http.Request, req *wire.RetainRequest, _ device.Micros) (any, error) {
	if err := d.checkVariant(req.Type, 0, req.Attrs); err != nil {
		return nil, err
	}
	id, err := d.svc.Retain(casebase.TypeID(req.Type), req.Implementation(), req.AtEpoch)
	if err != nil {
		return nil, err
	}
	return wire.RetainResponse{Type: req.Type, Impl: uint16(id), Epoch: d.svc.Epoch()}, nil
}

// retire withdraws an implementation variant through the epoch
// snapshot pipeline.
func (d *daemon) retire(_ context.Context, _ *http.Request, req *wire.RetireRequest, _ device.Micros) (any, error) {
	if err := d.checkVariant(req.Type, req.Impl, nil); err != nil {
		return nil, err
	}
	if err := d.svc.Retire(casebase.TypeID(req.Type), casebase.ImplID(req.Impl), req.AtEpoch); err != nil {
		return nil, err
	}
	return wire.RetireResponse{Type: req.Type, Impl: req.Impl, Epoch: d.svc.Epoch()}, nil
}

func (d *daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := d.reg.WriteProm(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// statz is the human/debug JSON snapshot: service counters, gate
// state, and the admission clock.
func (d *daemon) handleStatz(w http.ResponseWriter, r *http.Request) {
	st := d.svc.Stats()
	out := map[string]any{
		"serve":         st,
		"breaker_trips": d.gate.Trips(),
		"sim_now_us":    d.simNow.Load(),
		"draining":      d.svc.Draining(),
		"lockstep":      d.opt.lockstep,
	}
	if d.opt.learn {
		out["learn"] = d.svc.EpochStats()
		out["epoch_journal"] = d.svc.Journal()
		out["replay_hash"] = d.svc.ReplayHash()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (d *daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	d.drainMu.RLock()
	draining := d.draining
	d.drainMu.RUnlock()
	if draining {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// errUnknownVariant is checkVariant's refusal: the mutation names a
// type, impl or attribute the committed epoch does not have.
var errUnknownVariant = errors.New("qosd: unknown variant")

// errUnknownTask refuses a release of a task the requesting client
// does not hold.
var errUnknownTask = errors.New("qosd: unknown task")

// checkVariant validates a mutation request against the committed
// epoch's tree so the common client mistakes (unknown type, unknown
// impl, unknown attribute) get typed 4xx replies instead of surfacing
// as internal errors out of the commit pipeline. impl 0 skips the
// implementation check (retain assigns fresh IDs). A commit racing this
// check is caught again inside the pipeline.
func (d *daemon) checkVariant(ty, impl uint16, attrs []wire.MeasurementJSON) error {
	cb := d.svc.CaseBase()
	ft, ok := cb.Type(casebase.TypeID(ty))
	if !ok {
		return fmt.Errorf("%w: unknown function type %d", errUnknownVariant, ty)
	}
	if impl != 0 {
		if _, ok := ft.Impl(casebase.ImplID(impl)); !ok {
			return fmt.Errorf("%w: unknown impl %d of type %d", errUnknownVariant, impl, ty)
		}
	}
	for _, a := range attrs {
		if _, ok := cb.Registry().Lookup(attr.ID(a.ID)); !ok {
			return fmt.Errorf("%w: unknown attribute %d", errUnknownVariant, a.ID)
		}
	}
	return nil
}

// breakerFailure decides whether a service error is a health signal
// for the shard breaker. Semantic outcomes (no match, no feasible
// placement, an over-budget tenant) and load shedding are not: they
// are the service answering correctly. Device failures and deadline
// blowouts are.
func breakerFailure(err error) bool {
	if err == nil {
		return false
	}
	var nm *retrieval.ErrNoMatch
	switch {
	case errors.As(err, &nm),
		errors.Is(err, serve.ErrClosed): // includes ErrDraining
		return false
	case errors.Is(err, qosalloc.ErrDeviceFailed),
		errors.Is(err, context.DeadlineExceeded):
		return true
	}
	var nf *qosalloc.ErrNoFeasible
	var ov *serve.ErrOverload
	var be *admit.ErrBudgetExceeded
	if errors.As(err, &nf) || errors.As(err, &ov) || errors.As(err, &be) {
		return false
	}
	if errors.Is(err, retrieval.ErrCanceled) {
		// Client went away; says nothing about shard health.
		return false
	}
	return true // unclassified: treat as a failure
}

// mapError is the single error → (status, body) table for the daemon:
// every error reply's body is built here.
func mapError(err error) (int, wire.ErrorResponse) {
	if errors.Is(err, wire.ErrBadRequest) {
		return http.StatusBadRequest, wire.ErrorResponse{
			Code: wire.CodeBadRequest, Error: err.Error(),
		}
	}
	if errors.Is(err, errUnknownTask) {
		return http.StatusNotFound, wire.ErrorResponse{
			Code: wire.CodeUnknownTask, Error: err.Error(),
		}
	}
	if errors.Is(err, serve.ErrLearningOff) {
		return http.StatusForbidden, wire.ErrorResponse{
			Code: wire.CodeLearningOff, Error: err.Error(),
		}
	}
	var se *serve.ErrStaleEpoch
	if errors.As(err, &se) {
		return http.StatusConflict, wire.ErrorResponse{
			Code: wire.CodeStaleEpoch, Error: err.Error(),
		}
	}
	var rl *admit.ErrRateLimited
	if errors.As(err, &rl) {
		return http.StatusTooManyRequests, wire.ErrorResponse{
			Code: wire.CodeRateLimited, Error: err.Error(), RetryAfterUS: uint64(rl.RetryAfter),
		}
	}
	var ov *serve.ErrOverload
	if errors.As(err, &ov) {
		return http.StatusTooManyRequests, wire.ErrorResponse{
			Code: wire.CodeOverload, Error: err.Error(), RetryAfterUS: uint64(ov.RetryAfter),
		}
	}
	var be *admit.ErrBudgetExceeded
	if errors.As(err, &be) {
		return http.StatusTooManyRequests, wire.ErrorResponse{
			Code: wire.CodeBudgetExceeded, Error: err.Error(), RetryAfterUS: uint64(be.RetryAfter),
		}
	}
	var bo *admit.ErrBreakerOpen
	if errors.As(err, &bo) {
		return http.StatusServiceUnavailable, wire.ErrorResponse{
			Code: wire.CodeBreakerOpen, Error: err.Error(), RetryAfterUS: uint64(bo.RetryAfter),
		}
	}
	if errors.Is(err, serve.ErrDraining) || errors.Is(err, serve.ErrClosed) {
		return http.StatusServiceUnavailable, wire.ErrorResponse{
			Code: wire.CodeDraining, Error: err.Error(), RetryAfterUS: 1_000_000,
		}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout, wire.ErrorResponse{
			Code: wire.CodeDeadline, Error: err.Error(),
		}
	}
	if errors.Is(err, retrieval.ErrCanceled) {
		// Client cancellation surfaces as a timeout-class error too;
		// the client is gone, so the status is mostly for the logs.
		return http.StatusGatewayTimeout, wire.ErrorResponse{
			Code: wire.CodeDeadline, Error: err.Error(),
		}
	}
	var nm *retrieval.ErrNoMatch
	if errors.As(err, &nm) || errors.Is(err, errUnknownVariant) {
		return http.StatusNotFound, wire.ErrorResponse{
			Code: wire.CodeNoMatch, Error: err.Error(),
		}
	}
	var nf *qosalloc.ErrNoFeasible
	if errors.As(err, &nf) {
		return http.StatusConflict, wire.ErrorResponse{
			Code: wire.CodeNoFeasible, Error: err.Error(),
		}
	}
	return http.StatusInternalServerError, wire.ErrorResponse{
		Code: wire.CodeInternal, Error: err.Error(),
	}
}

// writeError emits err's JSON error body plus the Retry-After header
// (whole seconds, rounded up) when the error class carries a hint, and
// counts the response by status class. Every error reply goes through
// it.
func (d *daemon) writeError(w http.ResponseWriter, err error) {
	status, body := mapError(err)
	if status >= 500 {
		d.met.serverEr.Inc()
	} else {
		d.met.clientEr.Inc()
	}
	if body.RetryAfterUS > 0 {
		secs := (body.RetryAfterUS + 999_999) / 1_000_000
		w.Header().Set("Retry-After", strconv.FormatUint(secs, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func (d *daemon) writeOK(w http.ResponseWriter, body any) {
	d.met.ok.Inc()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(body)
}

// --- Serving & drain ----------------------------------------------------

// run serves until the listener fails or a signal arrives, then drains:
// stop admitting (new requests get 503 + Retry-After), wait for
// in-flight handlers, flush the service's admitted backlog, shut the
// listener down, and write a final metrics snapshot to snap. A clean
// drain returns nil — the process exit code 0 the deployment contract
// expects.
func (d *daemon) run(ln net.Listener, sig <-chan os.Signal, snap io.Writer) error {
	srv := &http.Server{Handler: d.mux}
	errCh := make(chan error, 1)
	// The acceptor goroutine has no WaitGroup/context tie by design: it
	// lives exactly as long as the listener, and run's drain path below
	// closes the listener (srv.Close), which makes Serve return and the
	// buffered errCh send complete.
	//qosvet:ignore leaklint acceptor lifetime is bounded by the listener; srv.Close in the drain path unblocks Serve
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		return fmt.Errorf("qosd: serve: %w", err)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "qosd: %v: draining (timeout %v)\n", s, d.opt.drainTimeout)
	}

	d.drainMu.Lock()
	d.draining = true
	d.drainMu.Unlock()
	d.met.draining.Set(1)

	// In-flight handlers finish their service calls before the service
	// itself drains, so none of them are cut off mid-request.
	waited := make(chan struct{})
	go func() { d.inflight.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(d.opt.drainTimeout):
		fmt.Fprintln(os.Stderr, "qosd: drain timeout with handlers still in flight")
	}

	d.svc.Close() // flush the admitted backlog, then stop the workers

	ctx, cancel := context.WithTimeout(context.Background(), d.opt.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("qosd: shutdown: %w", err)
	}

	if snap != nil {
		fmt.Fprintln(snap, "qosd: final metrics snapshot")
		if err := d.reg.WriteJSON(snap); err != nil {
			return fmt.Errorf("qosd: final snapshot: %w", err)
		}
	}
	return nil
}
