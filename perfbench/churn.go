package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"

	"qosalloc"
	"qosalloc/internal/alloc"
	"qosalloc/internal/retrieval"
)

// churnWorkload puts writes beside reads: Service.Allocate (an N-best
// walk plus placement under the service's serialization lock, each
// placed task released after a bounded hold), Service.Observe feeding
// the deferred net-commit layer, and a small share of Retain/Retire
// with epoch preconditions. Commits — deep clone, per-shard rebuild,
// token drop — are a few percent of ops, so the latency p99 sits
// inside the commit population.
type churnWorkload struct {
	spec          qosalloc.CaseBaseSpec
	k             int     // constraints per request
	opsPerSec     float64 // schedule ops per second of --seconds
	requests      int     // distinct allocate requests
	observations  int     // distinct observations
	foldThreshold int     // pending revisions that trip a commit
	holdOps       int     // placed tasks a client holds before releasing its oldest
}

// Schedule op kinds, by share per mille.
const (
	opAllocate   = iota // 450‰
	opObserve           // 540‰
	opStructural        // 10‰: Retain, or Retire of a variant the client retained
)

const (
	nBest = 3 // the service's N-best depth (its default)
	// maxStaleRuns bounds how often a client re-issues a call that
	// failed with *ErrStaleEpoch — the API's "re-read and retry". A
	// commit's swap window can outlast Allocate's own two re-fetches,
	// so the client yields between tries; an op still stale after this
	// many counts as failed.
	maxStaleRuns = 1000
)

func churnKind(seed int64, i uint64) (kind int, arg uint64) {
	arg = derive(seed, tagChurnArg, i)
	switch r := derive(seed, tagChurnOp, i) % 1000; {
	case r < 450:
		return opAllocate, arg
	case r < 990:
		return opObserve, arg
	default:
		return opStructural, arg
	}
}

// churnInputs is one run's generated pools.
type churnInputs struct {
	n         uint64
	reqs      []qosalloc.Request
	probe     qosalloc.Request
	obs       []qosalloc.Observation
	templates []retainTemplate
}

// retainTemplate is a new variant a Retain op adds.
type retainTemplate struct {
	typ qosalloc.TypeID
	im  qosalloc.Implementation
}

func newChurnInputs(cb *qosalloc.CaseBase, seed int64, w churnWorkload, n uint64) (*churnInputs, error) {
	in := &churnInputs{n: n}
	gen, err := newReqGen(cb, w.k, uint64(w.requests)+1, seed)
	if err != nil {
		return nil, err
	}
	if err := gen.checkDistinct(uint64(w.requests) + 1); err != nil {
		return nil, fmt.Errorf("input shape: %w", err)
	}
	for j := 0; j < w.requests; j++ {
		in.reqs = append(in.reqs, gen.request(uint64(j)))
	}
	in.probe = gen.request(uint64(w.requests))
	reg := cb.Registry()
	types := cb.Types()
	r := rng{s: derive(seed, tagChurnArg, 1<<62)}
	for j := 0; j < w.observations; j++ {
		ft := types[r.intn(len(types))]
		im := ft.Impls[r.intn(len(ft.Impls))]
		// Two attributes measured at either end of their design range:
		// reused observations keep pulling values across the range, so
		// revisions — and with them fold commits — never die out as
		// the case base converges, and their rate hardly depends on the
		// seed's attribute spans.
		o := qosalloc.Observation{Type: ft.ID, Impl: im.ID}
		for len(o.Measured) < 2 {
			p := im.Attrs[r.intn(len(im.Attrs))]
			d, _ := reg.Lookup(p.ID)
			v := d.Lo
			if r.intn(2) == 1 {
				v = d.Hi
			}
			if !hasAttr(o.Measured, p.ID) {
				o.Measured = append(o.Measured, qosalloc.AttrPair{ID: p.ID, Value: v})
			}
		}
		in.obs = append(in.obs, o)
	}
	for j := 0; j < 64; j++ {
		ft := types[r.intn(len(types))]
		base := ft.Impls[r.intn(len(ft.Impls))]
		im := qosalloc.Implementation{Name: "retained", Target: base.Target, Foot: base.Foot}
		for _, p := range base.Attrs {
			d, _ := reg.Lookup(p.ID)
			im.Attrs = append(im.Attrs, qosalloc.AttrPair{ID: p.ID, Value: qosalloc.AttrValue(int(d.Lo) + r.intn(int(d.Hi-d.Lo)+1))})
		}
		in.templates = append(in.templates, retainTemplate{typ: ft.ID, im: im})
	}
	fmt.Fprintf(os.Stderr, "inputs: %d schedule ops, %d requests, %d observations, %d retain templates\n",
		n, len(in.reqs), len(in.obs), len(in.templates))
	return in, nil
}

func hasAttr(ps []qosalloc.AttrPair, id qosalloc.AttrID) bool {
	for _, p := range ps {
		if p.ID == id {
			return true
		}
	}
	return false
}

// churnTally is one client's accounting, checked after the phase.
type churnTally struct {
	allocCalls, placed, released, retains, retires, staleRetries int64
	walks                                                        retrieval.Stats // traced replay engine
}

// implRef names a variant a client retained.
type implRef struct {
	typ  qosalloc.TypeID
	impl qosalloc.ImplID
}

var appNames = []string{"app0", "app1", "app2", "app3", "app4", "app5", "app6", "app7"}

// churnLoop runs client c's share of the schedule against svc. With a
// tracer it also replays each Allocate's N-best walk and placement on
// the client's own engine and shadow manager.
func (w churnWorkload) churnLoop(svc *qosalloc.Service, in *churnInputs, cb *qosalloc.CaseBase, seed int64, c *client, tally *churnTally) error {
	ctx := context.Background()
	app := appNames[c.idx%len(appNames)]
	var holds []qosalloc.TaskID
	var retained []implRef
	var eng *qosalloc.Engine
	var shadow *qosalloc.Manager
	var shadowHolds []qosalloc.TaskID
	var tc *qosalloc.TokenCache
	if c.tr != nil {
		rt, err := platform(cb)
		if err != nil {
			return err
		}
		eng = qosalloc.NewRetrievalEngine(cb)
		shadow = qosalloc.NewAllocationManager(cb, rt, qosalloc.WithPreemption(true), qosalloc.WithNBest(nBest))
		tc = qosalloc.NewTokenCache()
	}
	release := func(op uint64, id qosalloc.TaskID) {
		t0 := nanotime()
		err := svc.Release(id)
		dur := nanotime() - t0
		c.latency(op, dur)
		if c.tr != nil {
			c.tr.record(op, lRelease, noParent, t0, dur)
		}
		c.count(err)
		if err == nil {
			tally.released++
		}
	}
	for i, ok := c.take(); ok; i, ok = c.take() {
		kind, arg := churnKind(seed, i)
		switch kind {
		case opAllocate:
			req := in.reqs[arg%uint64(len(in.reqs))]
			prio := 1 + int(arg>>32%8)
			t0 := nanotime()
			var d *qosalloc.Decision
			var err error
			for try := 0; ; try++ {
				tally.allocCalls++
				d, err = svc.Allocate(ctx, app, req, prio)
				if !retryStale(err, try, tally) {
					break
				}
			}
			dur := nanotime() - t0
			c.latency(i, dur)
			c.count(err)
			if err == nil {
				tally.placed++
				holds = append(holds, d.Task.ID)
			}
			if c.tr != nil {
				c.tr.record(i, lAllocate, noParent, t0, dur)
				t := nanotime()
				cands, cerr := eng.RetrieveN(req, nBest)
				c.tr.add(i, lWalkN, lAllocate, t)
				var best qosalloc.Result
				if cerr == nil {
					best = cands[0]
					t = nanotime()
					sd, serr := shadow.PlaceCandidates(app, req, cands, prio)
					c.tr.add(i, lPlace, lAllocate, t)
					if serr == nil {
						shadowHolds = append(shadowHolds, sd.Task.ID)
					}
					if len(shadowHolds) > w.holdOps {
						_ = shadow.Release(shadowHolds[0]) // shadow bookkeeping only; never checked
						shadowHolds = shadowHolds[1:]
					}
				}
				replayTokenPath(c, i, lAllocate, req, tc, best, cerr)
			}
			if len(holds) > w.holdOps {
				release(i, holds[0])
				holds = holds[1:]
			}
		case opObserve:
			o := in.obs[arg%uint64(len(in.obs))]
			e0 := svc.Epoch()
			t0 := nanotime()
			err := svc.Observe(o)
			dur := nanotime() - t0
			c.latency(i, dur)
			c.count(err)
			if c.tr != nil {
				l := lObserve
				if svc.Epoch() != e0 {
					l = lCommit
				}
				c.tr.record(i, l, noParent, t0, dur)
			}
		case opStructural:
			retire := len(retained) >= 2 || (len(retained) == 1 && arg&1 == 0)
			tpl := in.templates[arg%uint64(len(in.templates))]
			t0 := nanotime()
			var id qosalloc.ImplID
			var err error
			for try := 0; ; try++ {
				at := svc.Epoch()
				if retire {
					err = svc.Retire(retained[0].typ, retained[0].impl, at)
				} else {
					id, err = svc.Retain(tpl.typ, tpl.im, at)
				}
				if !retryStale(err, try, tally) {
					break
				}
			}
			dur := nanotime() - t0
			c.latency(i, dur)
			c.count(err)
			if c.tr != nil {
				c.tr.record(i, lCommit, noParent, t0, dur)
			}
			switch {
			case err != nil:
			case retire:
				tally.retires++
				retained = retained[1:]
			default:
				tally.retains++
				retained = append(retained, implRef{tpl.typ, id})
			}
		}
	}
	for _, id := range holds {
		release(in.n, id)
	}
	if eng != nil {
		tally.walks = eng.Stats()
	}
	return nil
}

// retryStale reports whether a call that returned err on its try-th
// attempt is to be issued again, yielding first.
func retryStale(err error, try int, tally *churnTally) bool {
	var se *qosalloc.ErrStaleEpoch
	if !errors.As(err, &se) || try+1 == maxStaleRuns {
		return false
	}
	tally.staleRetries++
	runtime.Gosched()
	return true
}

// churnPass is one pass of the schedule with the service's counters
// around it.
type churnPass struct {
	*pass
	tally         churnTally // summed over clients
	before, after qosalloc.ServiceStats
	ep0, ep1      qosalloc.EpochStats
	mgr           alloc.Stats
}

// pass runs the schedule on svc from nc clients, closes svc, and checks
// the pass's accounting into out: every allocate call counted once as
// placed or failed, every placed task released, the service's
// retain/retire counts equal to the clients', and the final epoch equal
// to 1 + commits.
func (w churnWorkload) pass(svc *qosalloc.Service, in *churnInputs, cb *qosalloc.CaseBase, seed int64, nc int, trace bool, out *outcome) (*churnPass, error) {
	res := &churnPass{before: svc.Stats(), ep0: svc.EpochStats()}
	tallies := make([]churnTally, nc)
	errs := make([]error, nc)
	res.pass = runPass(nc, in.n, trace, func(c *client) {
		errs[c.idx] = w.churnLoop(svc, in, cb, seed, c, &tallies[c.idx])
	})
	res.after, res.ep1 = svc.Stats(), svc.EpochStats()
	res.mgr = svc.Manager().Stats() // quiescent: every client has returned
	epoch := svc.Epoch()
	svc.Close()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	t := &res.tally
	for _, x := range tallies {
		t.allocCalls += x.allocCalls
		t.placed += x.placed
		t.released += x.released
		t.retains += x.retains
		t.retires += x.retires
		t.staleRetries += x.staleRetries
		t.walks.Retrievals += x.walks.Retrievals
		t.walks.ImplsScored += x.walks.ImplsScored
		t.walks.AttrsCompared += x.walks.AttrsCompared
	}
	name := "untraced"
	if trace {
		name = "traced"
	}
	if got := (res.after.Allocated - res.before.Allocated) + (res.after.AllocFailed - res.before.AllocFailed); got != t.allocCalls {
		out.problem("%s: Allocated+AllocFailed = %d, want %d allocate calls", name, got, t.allocCalls)
	}
	if t.placed != t.released {
		out.problem("%s: %d tasks placed but %d released", name, t.placed, t.released)
	}
	if r, x := res.ep1.Retained-res.ep0.Retained, res.ep1.Retired-res.ep0.Retired; r != t.retains || x != t.retires {
		out.problem("%s: service retained/retired %d/%d, clients %d/%d", name, r, x, t.retains, t.retires)
	}
	if epoch != uint64(1+res.ep1.Commits) {
		out.problem("%s: final epoch %d, want 1 + %d commits", name, epoch, res.ep1.Commits)
	}
	checkServeAccounting(out, res.before, res.after, res.ops)
	return res, nil
}

func (w churnWorkload) run(cfg config) (*outcome, error) {
	spec := w.spec
	spec.Seed = int64(derive(cfg.seed, tagCaseBase, 0) >> 1)
	cb, _, err := qosalloc.GenCaseBase(spec)
	if err != nil {
		return nil, err
	}
	doc, err := encodeCaseBase(cb)
	if err != nil {
		return nil, err
	}
	in, err := newChurnInputs(cb, cfg.seed, w, uint64(w.opsPerSec*float64(cfg.seconds)))
	if err != nil {
		return nil, err
	}
	opts := []qosalloc.Option{
		qosalloc.WithLearning(0.5, w.foldThreshold, 0),
		qosalloc.WithPreemption(true),
		qosalloc.WithNBest(nBest),
	}
	svc, st, err := timedSetups(doc, in.probe, opts)
	if err != nil {
		return nil, err
	}
	nc := numClients()
	out := &outcome{}
	p, err := w.pass(svc, in, cb, cfg.seed, nc, false, out)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = p.ops, p.failed
	out.e2e = endToEndValues(p.pass, p.cpu, rss, st.total)
	fmt.Fprintf(os.Stderr, "churn: %d commits (%d folds), %d allocate calls, %d placed, %d client stale retries\n",
		p.ep1.Commits-p.ep0.Commits, p.ep1.Folds-p.ep0.Folds, p.tally.allocCalls,
		p.after.Allocated-p.before.Allocated, p.tally.staleRetries)
	if !cfg.trace {
		return out, nil
	}

	tsvc, _, err := coldStart(doc, in.probe, opts)
	if err != nil {
		return nil, err
	}
	tp, err := w.pass(tsvc, in, cb, cfg.seed, nc, true, out)
	if err != nil {
		return nil, err
	}
	lh := layerHists(tp.clients)
	q := func(l layer, q float64) float64 { return lh[l].quantile(q) }
	perKop := func(d int64) float64 { return 1e3 * ratio(float64(d), float64(p.ops)) }
	v := zeroLayers()
	setupValues(v, st)
	serveCountValues(v, p.before, p.after, p.ops)
	goValues(v, p.pass)
	walks := tp.tally.walks
	v["retrieval.walkn_us_p50"] = q(lWalkN, 0.5) / 1e3
	v["retrieval.impls_per_walk"] = ratio(float64(walks.ImplsScored), float64(walks.Retrievals))
	v["retrieval.attrs_per_walk"] = ratio(float64(walks.AttrsCompared), float64(walks.Retrievals))
	v["retrieval.signature_ns"] = q(lSignature, 0.5)
	v["retrieval.token_lookup_ns"] = q(lTokenLookup, 0.5)
	v["serve.allocate_us_p50"] = q(lAllocate, 0.5) / 1e3
	v["serve.allocate_us_p99"] = q(lAllocate, 0.99) / 1e3
	v["alloc.place_us_p50"] = q(lPlace, 0.5) / 1e3
	v["alloc.place_us_p99"] = q(lPlace, 0.99) / 1e3
	v["alloc.placed_ratio"] = ratio(float64(p.after.Allocated-p.before.Allocated), float64(p.tally.allocCalls))
	v["alloc.preempt_per_kop"] = perKop(int64(p.mgr.Preemptions))
	v["serve.release_us_p50"] = q(lRelease, 0.5) / 1e3
	v["learn.observe_us_p50"] = q(lObserve, 0.5) / 1e3
	v["serve.commit_ms_p50"] = q(lCommit, 0.5) / 1e6
	v["serve.commit_ms_p99"] = q(lCommit, 0.99) / 1e6
	v["serve.commits_per_kop"] = perKop(p.ep1.Commits - p.ep0.Commits)
	v["serve.stale_retries_per_kop"] = perKop(p.ep1.StaleRetries - p.ep0.StaleRetries)
	v["trace.overhead_pct"] = overheadPct(tp.lat.quantile(0.5), p.lat.quantile(0.5))
	out.layers = v
	return out, writeSpans(cfg, tp.clients)
}
