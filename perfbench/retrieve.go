package main

import (
	"context"
	"fmt"
	"os"
	"strconv"

	"qosalloc"
	"qosalloc/internal/retrieval"
)

// retrieveWorkload drives Service.Retrieve from closed-loop clients:
// hot_small (a small hot set repeated, so bypass tokens and dedup
// answer nearly everything) and scan_large (a large tree where no
// request ever repeats, so every op walks the engine).
type retrieveWorkload struct {
	spec      qosalloc.CaseBaseSpec
	k         int     // constraints per request
	opsPerSec float64 // ops per second of --seconds: the fixed op count
	hot       int     // hot-set size; 0 makes every op a new request
}

// retrieveInputs is one run's generated schedule.
type retrieveInputs struct {
	n       uint64 // ops
	gen     *reqGen
	mix     *hotMix // nil when every op is a new request
	hotReqs []qosalloc.Request
	firstOp []uint64 // per hot request: the op that first asks for it
	probe   qosalloc.Request
}

func newRetrieveInputs(cb *qosalloc.CaseBase, seed int64, n uint64, hot, k int) (*retrieveInputs, error) {
	in := &retrieveInputs{n: n}
	keys := n
	if hot > 0 {
		m := newHotMix(seed, n, hot)
		in.mix = &m
		keys = m.keys()
	}
	// One key beyond the schedule's is the set-up probe, so the probe
	// never mints a token an op could hit.
	gen, err := newReqGen(cb, k, keys+1, seed)
	if err != nil {
		return nil, err
	}
	in.gen = gen
	if err := gen.checkDistinct(keys + 1); err != nil {
		return nil, fmt.Errorf("input shape: %w", err)
	}
	in.probe = gen.request(keys)
	if in.mix == nil {
		fmt.Fprintf(os.Stderr, "inputs: %d ops, every request distinct (repeat share 0)\n", n)
		return in, nil
	}
	share := in.mix.repeatShare()
	if share < 0.95 {
		return nil, fmt.Errorf("input shape: repeat share %.4f < 0.95", share)
	}
	in.firstOp = make([]uint64, hot)
	seen := make([]bool, hot)
	for i := uint64(0); i < n; i++ {
		if key, cold := in.mix.at(i); !cold && !seen[key-in.mix.cold] {
			seen[key-in.mix.cold] = true
			in.firstOp[key-in.mix.cold] = i
		}
	}
	for h := 0; h < hot; h++ {
		in.hotReqs = append(in.hotReqs, gen.request(in.mix.cold+uint64(h)))
	}
	fmt.Fprintf(os.Stderr, "inputs: %d ops, %d hot requests, %d cold, repeat share %.4f\n", n, hot, in.mix.cold, share)
	return in, nil
}

// request returns op i's request, writing cold requests into buf. A hot
// op returns the shared hot request, and its index (-1 otherwise).
func (in *retrieveInputs) request(i uint64, buf []qosalloc.Constraint) (qosalloc.Request, int) {
	if in.mix == nil {
		return in.gen.fill(i, buf), -1
	}
	key, cold := in.mix.at(i)
	if cold {
		return in.gen.fill(key, buf), -1
	}
	h := int(key - in.mix.cold)
	return in.hotReqs[h], h
}

// walks reports whether op i is the schedule's first request for its
// signature: the op that walks the engine and mints the token.
func (in *retrieveInputs) walks(i uint64, hot int) bool {
	return hot < 0 || in.firstOp[hot] == i
}

func (w retrieveWorkload) run(cfg config) (*outcome, error) {
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
	in, err := newRetrieveInputs(cb, cfg.seed, uint64(w.opsPerSec*float64(cfg.seconds)), w.hot, w.k)
	if err != nil {
		return nil, err
	}
	svc, st, err := timedSetups(doc, in.probe, nil)
	if err != nil {
		return nil, err
	}
	nc := numClients()
	before := svc.Stats()
	p := w.pass(svc, cb, in, nc, false)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	svc.Close()
	after := svc.Stats()
	out := &outcome{attempted: p.ops, failed: p.failed}
	out.e2e = endToEndValues(p, p.cpu, rss, st.total)

	// Output check: every served answer against a fresh engine walk.
	want, walks := in.expected(cb, nc, func(r qosalloc.Request) (qosalloc.Request, error) { return r, nil })
	if p.digest != want {
		out.problem("served results differ from fresh engine walks (outcome digest %016x, want %016x)", p.digest, want)
	}
	checkServeAccounting(out, before, after, p.ops)
	if !cfg.trace {
		return out, nil
	}

	// Traced pass: the same schedule on a fresh set-up, with the layer
	// calls replayed per op.
	tsvc, _, err := coldStart(doc, in.probe, nil)
	if err != nil {
		return nil, err
	}
	tp := w.pass(tsvc, cb, in, nc, true)
	tsvc.Close()
	if tp.digest != want || tp.mismatches != 0 {
		out.problem("traced pass: served results differ from fresh engine walks (%d replay mismatches)", tp.mismatches)
	}
	lh := layerHists(tp.clients)
	v := zeroLayers()
	setupValues(v, st)
	serveCountValues(v, before, after, p.ops)
	goValues(v, p)
	walkValues(v, lh, walks)
	v["serve.retrieve_us_p50"] = lh[lRetrieve].quantile(0.5) / 1e3
	v["serve.retrieve_us_p99"] = lh[lRetrieve].quantile(0.99) / 1e3
	v["serve.self_us_p50"] = lh[lSelf].quantile(0.5) / 1e3
	wireValues(v, lh)
	v["trace.overhead_pct"] = overheadPct(tp.lat.quantile(0.5), p.lat.quantile(0.5))
	out.layers = v
	return out, writeSpans(cfg, tp.clients)
}

// pass runs the schedule on svc. Traced, each op also replays the
// engine walk (on ops that walk) and the token path on the client's own
// engine and cache, and the wire work qosd would do for it: decoding
// the op's /v1/retrieve body, admission, encoding the answer.
func (w retrieveWorkload) pass(svc *qosalloc.Service, cb *qosalloc.CaseBase, in *retrieveInputs, nc int, trace bool) *pass {
	ctx := context.Background()
	gate := newGate(svc.Shards())
	return runPass(nc, in.n, trace, func(c *client) {
		buf := make([]qosalloc.Constraint, w.k)
		var eng *qosalloc.Engine
		var tc *qosalloc.TokenCache
		var wr *wireReplay
		var body []byte
		name := "c" + strconv.Itoa(c.idx)
		if trace {
			eng, tc = qosalloc.NewRetrievalEngine(cb), qosalloc.NewTokenCache()
			wr = &wireReplay{gate: gate}
		}
		for i, ok := c.take(); ok; i, ok = c.take() {
			req, hot := in.request(i, buf)
			t0 := nanotime()
			r, err := svc.Retrieve(ctx, req)
			dur := nanotime() - t0
			c.latency(i, dur)
			c.count(err)
			word := outcomeWord(i, r, err)
			c.digest += word
			if !trace {
				continue
			}
			c.tr.record(i, lRetrieve, noParent, t0, dur)
			c.tr.h[lSelf].record(dur - replayWalk(c, i, lRetrieve, in.walks(i, hot), eng, req, word))
			replayTokenPath(c, i, lRetrieve, req, tc, r, err)
			body = appendBody(body[:0], name, req)
			if _, err := wr.decodeAdmit(c, i, lRetrieve, body); err != nil {
				c.mismatches++
			}
			wr.encode(c, i, lRetrieve, r)
		}
	})
}

// expected returns the outcome digest a correct service produces for
// the schedule, and the checker's engine counters. conv maps a
// generated request to the request the service actually receives.
func (in *retrieveInputs) expected(cb *qosalloc.CaseBase, workers int, conv func(qosalloc.Request) (qosalloc.Request, error)) (uint64, retrieval.Stats) {
	eng := qosalloc.NewRetrievalEngine(cb)
	walk := func(req qosalloc.Request) (qosalloc.Result, error) {
		creq, err := conv(req)
		if err != nil {
			return qosalloc.Result{}, err
		}
		return eng.Retrieve(creq)
	}
	var hotRes []qosalloc.Result
	var hotErr []error
	for _, req := range in.hotReqs {
		r, err := walk(req)
		hotRes, hotErr = append(hotRes, r), append(hotErr, err)
	}
	var memo func(uint64) (qosalloc.Result, error, bool)
	if in.mix != nil {
		memo = func(i uint64) (qosalloc.Result, error, bool) {
			key, cold := in.mix.at(i)
			if cold {
				return qosalloc.Result{}, nil, false
			}
			h := key - in.mix.cold
			return hotRes[h], hotErr[h], true
		}
	}
	reqAt := func(i uint64, buf []qosalloc.Constraint) (qosalloc.Request, error) {
		req, _ := in.request(i, buf)
		return conv(req)
	}
	return expectedDigest(cb, in.n, workers, reqAt, memo, in.gen.k)
}

// replayWalk replays op's engine walk when the op is one that walks,
// records the span, counts a mismatch with the served answer's word,
// and returns the walk's duration (0 when the op does not walk).
func replayWalk(c *client, op uint64, parent layer, walks bool, eng *qosalloc.Engine, req qosalloc.Request, served uint64) int64 {
	if !walks {
		return 0
	}
	t := nanotime()
	r, err := eng.Retrieve(req)
	dur := c.tr.add(op, lWalk, parent, t)
	if outcomeWord(op, r, err) != served {
		c.mismatches++
	}
	return dur
}

// walkValues reports the engine-walk layer.
func walkValues(v values, lh *[numLayers]hist, walks retrieval.Stats) {
	v["retrieval.walk_us_p50"] = lh[lWalk].quantile(0.5) / 1e3
	v["retrieval.walk_us_p99"] = lh[lWalk].quantile(0.99) / 1e3
	v["retrieval.impls_per_walk"] = ratio(float64(walks.ImplsScored), float64(walks.Retrievals))
	v["retrieval.attrs_per_walk"] = ratio(float64(walks.AttrsCompared), float64(walks.Retrievals))
	v["retrieval.signature_ns"] = lh[lSignature].quantile(0.5)
	v["retrieval.token_lookup_ns"] = lh[lTokenLookup].quantile(0.5)
}

// replayTokenPath replays the serve layer's per-request bookkeeping on
// the client's own token cache: signature derivation, then the token
// lookup (storing a token on a miss, as the shard does after a walk).
func replayTokenPath(c *client, op uint64, parent layer, req qosalloc.Request, tc *qosalloc.TokenCache, r qosalloc.Result, err error) {
	t := nanotime()
	sig := retrieval.Signature(req)
	c.tr.add(op, lSignature, parent, t)
	t = nanotime()
	_, hit := tc.LookupSig(sig)
	c.tr.add(op, lTokenLookup, parent, t)
	if !hit && err == nil {
		tc.StoreSig(sig, qosalloc.Token{Type: r.Type, Impl: r.Impl, Similarity: r.Similarity})
	}
}

// serveCountValues reports the serve layer's counters over a phase.
func serveCountValues(v values, before, after qosalloc.ServiceStats, ops int64) {
	perKop := func(d int64) float64 { return 1e3 * ratio(float64(d), float64(ops)) }
	v["serve.token_hit_ratio"] = ratio(float64(after.TokenHits-before.TokenHits), float64(ops))
	v["serve.dedup_ratio"] = ratio(float64(after.DedupHits-before.DedupHits), float64(after.BatchedJobs-before.BatchedJobs))
	v["serve.batch_mean"] = ratio(float64(after.BatchedJobs-before.BatchedJobs), float64(after.Batches-before.Batches))
	v["serve.walks_per_kop"] = perKop(after.EngineRetrievals - before.EngineRetrievals)
	v["serve.shed_per_kop"] = perKop(after.Shed - before.Shed)
}

// checkServeAccounting checks the serve counters' conservation laws
// over a phase: every admitted job was batched and nothing was shed.
func checkServeAccounting(out *outcome, before, after qosalloc.ServiceStats, ops int64) {
	if e, b := after.Enqueued-before.Enqueued, after.BatchedJobs-before.BatchedJobs; e != b {
		out.problem("serve accounting: %d jobs enqueued but %d batched", e, b)
	}
	if shed := after.Shed - before.Shed; shed != 0 {
		out.problem("serve shed %d of %d ops", shed, ops)
	}
}
