// Package serve is the concurrent allocation service layer (DESIGN.md
// §9): a sharded, batching front end between many application clients
// and the single allocation manager of fig. 1.
//
// The paper's retrieval unit wins by streaming pre-sorted linear lists
// through a fixed datapath; its system model assumes many concurrent
// applications negotiating QoS against one allocation manager. This
// package closes that gap for the software system:
//
//   - Sharding. The case base is partitioned by TypeID across N
//     shards, so requests for unrelated function types score in
//     parallel. Each shard owns a bypass TokenCache; every shard walks
//     the epoch's one Engine, which is safe for concurrent use.
//
//   - One request path. Retrieve and Allocate are answered on the
//     caller's goroutine, as the allocation manager answers each
//     application call when it arrives (§3): a Retrieve from its shard's
//     token when one holds the request, otherwise by a walk of its own,
//     and an Allocate by a walk of its candidate list. Each Retrieve is
//     hashed once (retrieval.Hash); the hash keys the token probe, which
//     compares the full request before it shares an answer, so a hash
//     collision costs a walk, never a wrong result.
//
//   - Micro-batching. RetrieveBatch and AllocateBatch split their
//     requests into pre-formed per-shard batches. Within a batch,
//     identical requests are deduplicated singleflight-style — one list
//     walk serves every job under the same hash whose request is equal —
//     and a batch's best-match jobs probe and fill the same token caches
//     a Retrieve does.
//
//   - Admission control. Each shard bounds its concurrent walks at
//     MaxQueue; beyond it the service sheds load with a typed
//     *ErrOverload carrying a retry-after hint instead of piling walks up
//     without bound.
//
// Placements feed the alloc.Manager under one serialization lock — the
// manager and run-time system model a single platform and are not
// concurrency-safe — so throughput comes from the retrieval side:
// parallel shards, deduplication, and token bypass.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"qosalloc/internal/alloc"
	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/obs"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/rtsys"
)

// Defaults for zero Config fields.
const (
	DefaultShards   = 4
	DefaultMaxBatch = 32
	DefaultMaxQueue = 256
)

// Config tunes the service. The zero value gives the defaults above,
// the paper's retrieval measure, and the manager's default policy.
type Config struct {
	// Shards is the number of partitions the case base is split
	// across (by TypeID modulo Shards).
	Shards int
	// MaxBatch bounds how many requests of a RetrieveBatch or
	// AllocateBatch one shard runs as one micro-batch.
	MaxBatch int
	// MaxQueue bounds each shard's concurrent walks; a Retrieve or
	// Allocate that would walk beyond it is shed with *ErrOverload.
	MaxQueue int
	// Engine configures the retrieval engine of every epoch, which the
	// shards and the allocation manager share.
	Engine retrieval.Options
	// Manager tunes the allocation policy fed by AllocateBatch and
	// Allocate.
	Manager alloc.Options
	// Learning enables live case-base mutation: Observe/Retain/Retire/
	// CommitNow accumulate into volatile deltas and commit through the
	// epoch-snapshot swap pipeline. The zero value leaves the case base
	// frozen (mutation calls return ErrLearningOff).
	Learning LearnConfig
}

// Learning defaults for zero LearnConfig fields (with Enabled set).
const (
	DefaultAlpha         = 0.5
	DefaultFoldThreshold = 64
)

// LearnConfig tunes the deferred net-commit layer (DESIGN.md §14).
type LearnConfig struct {
	// Enabled turns the mutation API on.
	Enabled bool
	// Alpha is the EWMA weight of new observations in (0, 1];
	// out-of-range values (including zero) fall back to DefaultAlpha.
	Alpha float64
	// FoldThreshold trips a commit once this many attribute values have
	// pending LSB-visible revisions across all writer stripes; <= 0
	// falls back to DefaultFoldThreshold.
	FoldThreshold int
	// MaxAge trips a commit once the oldest pending observation is this
	// old on the sim clock, checked at every mutation entry point and
	// CommitNow (never from a wall clock). Zero disables the age bound.
	MaxAge device.Micros
}

// ErrClosed reports a call into a service whose Close has begun.
var ErrClosed = errors.New("serve: service closed")

// ErrDraining reports a call into a service whose shutdown has begun:
// the service stopped admitting work and is finishing the calls already
// admitted. It wraps ErrClosed, so existing errors.Is(err, ErrClosed)
// checks keep rejecting, while errors.Is(err, ErrDraining) lets a
// front end distinguish shutdown (permanent for this process — fail
// over) from overload (*ErrOverload — retry here after the hint).
var ErrDraining = fmt.Errorf("%w: draining", ErrClosed)

// ErrOverload is the typed admission-control rejection: the target
// shard's walks in flight (QueueLen) reached MaxQueue. RetryAfter is a
// coarse sim-time hint — the §4.2 software-retrieval scale (~10 µs) per
// walk ahead — after which the shard has likely drained.
type ErrOverload struct {
	Shard      int
	QueueLen   int
	RetryAfter device.Micros
}

func (e *ErrOverload) Error() string {
	return fmt.Sprintf("serve: shard %d overloaded (%d walks in flight); retry after ~%d µs",
		e.Shard, e.QueueLen, e.RetryAfter)
}

// Stats counts service activity. All fields are monotone except
// MaxBatch (a high-water mark). A Retrieve or Allocate job answered on
// the caller's goroutine is counted once, as an inline hit or an inline
// walk; the fields marked derived add those two counts to the
// pre-formed batches' own when Stats is read.
type Stats struct {
	Enqueued         int64 // Retrieve and Allocate jobs answered on the caller's goroutine (derived: inline hits + inline walks)
	Shed             int64 // jobs refused with ErrOverload
	Batches          int64 // micro-batches processed: pre-formed batches, and each Enqueued job as one (derived)
	BatchedJobs      int64 // jobs across those batches (derived: pre-formed batch jobs + Enqueued)
	DedupHits        int64 // jobs served by another job's walk (singleflight)
	TokenHits        int64 // retrievals bypassed by a shard token cache (derived: batch jobs' + inline hits)
	Canceled         int64 // batch jobs dropped on a dead caller context
	MaxBatch         int64 // largest batch coalesced so far (derived: at least 1 once Enqueued is)
	EngineRetrievals int64 // actual engine list walks (derived: batch jobs' + inline walks)
	Allocated        int64 // allocation calls that placed a variant
	AllocFailed      int64 // allocation calls that failed (not refused with ErrDraining)
}

type jobKind uint8

const (
	jobRetrieve   jobKind = iota // best match for the caller
	jobCandidates                // N-best list feeding a placement
)

// job is one retrieval unit. runBatch writes its result to res, which
// the caller of a pre-formed batch (RetrieveBatch, AllocateBatch) reads
// once the batch has run; a Retrieve or Allocate walk takes the result
// from walk directly.
type job struct {
	ctx  context.Context
	kind jobKind
	n    int32 // candidate depth for jobCandidates; int32 packs it beside kind
	req  casebase.Request
	hash uint64 // retrieval.Hash(req): token and dedup key of a batch job and a Retrieve
	res  jobResult
}

type jobResult struct {
	best  retrieval.Result
	list  []retrieval.Result
	epoch uint64 // snapshot epoch the retrieval ran against
	err   error
}

// jobKey is the singleflight key: the request hash qualified by kind
// and candidate depth, so a best-match walk never masks a candidate
// walk and candidate walks of different depth never share a result.
// Equal keys share a result only when the requests are equal too.
type jobKey struct {
	kind jobKind
	n    int32
	hash uint64
}

func (j *job) key() jobKey { return jobKey{j.kind, j.n, j.hash} }

// shard is one partition: the mutexes serializing its batches and its
// token caches, its count of walks in flight, and its stripe of hot-path
// counters. The token cache itself lives in the snapshot — an epoch swap
// replaces it wholesale — but the shard state persists across swaps. mu
// is held for a whole batch and only batches take it, so a Retrieve or
// Allocate never waits behind one. tokMu guards the token caches alone
// and is only ever held for one lookup or store, never across a walk.
type shard struct {
	idx int

	mu    sync.Mutex // serializes this shard's batches and guards seen
	tokMu sync.Mutex // serializes this shard's token caches, of any epoch
	// seen is the per-batch singleflight map from a key to the first
	// job resolved under it, cleared as every batch ends; reusing it
	// spares a map per batch.
	seen map[jobKey]*job
	// walkers counts the Retrieve and Allocate walks in flight on this
	// shard, bounded by MaxQueue.
	walkers atomic.Int64
	stripe  stripe // last: its pad parts this shard's hot words from the next's
}

// Service is the concurrent allocation front end. Create with New,
// dispose with Close. Retrieve/RetrieveBatch/Allocate/AllocateBatch are
// safe for concurrent use by many goroutines; the underlying manager
// and run-time system are serialized internally.
type Service struct {
	cfg Config
	sys *rtsys.System
	mgr *alloc.Manager

	shards []*shard
	// snap is the committed epoch: case base + engine + per-shard token
	// caches, swapped as one unit. Readers load it once per call or
	// batch and never take a lock to do so.
	snap atomic.Pointer[snapshot]
	met  atomic.Pointer[metrics]

	// commitMu serializes the swap pipeline (and guards retMet, the
	// retrieval bundle every epoch's engine counts into from its birth).
	commitMu sync.Mutex
	retMet   *retrieval.Metrics
	// mgrEpoch is the epoch the manager's case base matches; guarded by
	// allocMu so placement can detect candidates from a stale epoch.
	mgrEpoch uint64

	// ls is the deferred net-commit state; nil when learning is off.
	ls *learnState

	// journal is the epoch replay witness: one line per commit. Fold
	// points and epoch numbering are part of the replay contract
	// (DESIGN.md §14).
	journal *obs.Journal

	// now mirrors the sim clock for the learning age bound and the
	// commit journal; reading rtsys.System.Now directly from there
	// would race the driver advancing it.
	now atomic.Uint64

	allocMu sync.Mutex // serializes Manager and rtsys access

	counts   counts
	maxBatch atomic.Int64 // high-water mark of the pre-formed batches' size

	// closing and the shards' admitted counts are the drain fence
	// (DESIGN.md §11): a call counts itself in on its shard, admits its
	// work only while closing is false, and counts itself out; Close
	// raises closing and waits for every count to reach zero. Go's
	// atomics are sequentially consistent, so a call is either refused
	// with ErrDraining or answered before Close returns, and no call ever
	// waits on the fence.
	closing   atomic.Bool
	inflight  sync.WaitGroup // Allocate/*Batch and mutation calls past admission
	drainOnce sync.Once
}

// New builds the service over a shared immutable case base and a
// run-time system. It starts no goroutine; Close drains it.
func New(cb *casebase.CaseBase, sys *rtsys.System, cfg Config) *Service {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = DefaultMaxQueue
	}
	if cfg.Manager.NBest <= 0 {
		cfg.Manager.NBest = alloc.DefaultNBest
	}
	if cfg.Learning.Enabled {
		if cfg.Learning.Alpha <= 0 || cfg.Learning.Alpha > 1 {
			cfg.Learning.Alpha = DefaultAlpha
		}
		if cfg.Learning.FoldThreshold <= 0 {
			cfg.Learning.FoldThreshold = DefaultFoldThreshold
		}
	}
	s := &Service{
		cfg:      cfg,
		sys:      sys,
		retMet:   retrieval.NewMetrics(nil),
		mgrEpoch: 1,
		journal:  obs.NewJournal(),
	}
	sn := newSnapshot(1, cb, cfg.Shards, cfg.Engine, s.retMet)
	s.mgr = alloc.New(sn.engine, sys, cfg.Manager)
	s.snap.Store(sn)
	s.met.Store(newMetrics(nil))
	s.met.Load().epoch.Set(1)
	s.now.Store(uint64(sys.Now()))
	if cfg.Learning.Enabled {
		s.ls = newLearnState(cb, cfg.Learning, cfg.Shards)
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{idx: i, seen: make(map[jobKey]*job)}
		sh.stripe.batchSize = obs.NewHistogram(batchBuckets)
		s.shards = append(s.shards, sh)
	}
	return s
}

// Close drains the service: admission ends immediately (new calls are
// refused with ErrDraining), and every call already admitted — a token
// probe or walk, a batch, a placement, a commit — finishes with its
// result, not an error. Close is idempotent and safe to call
// concurrently; every call blocks until the drain has finished.
func (s *Service) Close() {
	s.drainOnce.Do(func() {
		s.closing.Store(true)
		s.met.Load().draining.Set(1)
		for _, sh := range s.shards {
			// An admission in progress is short and never blocks: a token
			// probe, a walk or an in-flight Add.
			for sh.stripe.admitted.Load() != 0 {
				runtime.Gosched()
			}
		}
	})
	s.inflight.Wait() // Allocate/*Batch calls finish their placements
}

// Draining reports whether shutdown has begun (Close called).
func (s *Service) Draining() bool { return s.closing.Load() }

// Shards returns the shard count.
func (s *Service) Shards() int { return len(s.shards) }

// Manager returns the underlying allocation manager, which walks the
// committed epoch's engine. Direct calls on it must not race the
// service's Allocate*/Advance/Release — drive it from the same
// goroutine that drives the service, or not at all.
func (s *Service) Manager() *alloc.Manager { return s.mgr }

// System returns the underlying run-time system (same caveat as
// Manager).
func (s *Service) System() *rtsys.System { return s.sys }

// Instrument registers the serve metric set on reg, attaches the
// service's counts, and threads the registry through the current
// epoch's engine and the manager. Engines built by later commits
// inherit the same retrieval metric set, so the manager's walks count
// there too.
func (s *Service) Instrument(reg *obs.Registry) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	m := newMetrics(reg)
	sn := s.snap.Load()
	m.epoch.Set(int64(sn.epoch))
	s.met.Store(m)
	s.counts.attach(reg)
	for _, sh := range s.shards {
		sh.stripe.attach(reg)
	}
	s.retMet = retrieval.NewMetrics(reg)
	sn.engine.Instrument(s.retMet)
	s.allocMu.Lock()
	s.mgr.Instrument(reg)
	s.allocMu.Unlock()
}

// Stats returns a snapshot of the service counters, summing the
// shards' stripes and deriving the totals an inline answer adds to
// (see stripe).
func (s *Service) Stats() Stats {
	c := &s.counts
	st := Stats{
		Shed:        c.shed.Load(),
		DedupHits:   c.dedupHits.Load(),
		Canceled:    c.canceled.Load(),
		MaxBatch:    s.maxBatch.Load(),
		Allocated:   c.allocated.Load(),
		AllocFailed: c.allocFailed.Load(),
	}
	for _, sh := range s.shards {
		p := &sh.stripe
		hits, walks := p.inlineHits.Load(), p.inlineWalks.Load()
		st.Enqueued += hits + walks
		st.Batches += p.batches.Load() + hits + walks
		st.BatchedJobs += p.batchSize.Sum() + hits + walks
		st.TokenHits += p.tokenHits.Load() + hits
		st.EngineRetrievals += p.walks.Load() + walks
	}
	if st.Enqueued > 0 {
		st.MaxBatch = max(st.MaxBatch, 1)
	}
	return st
}

// --- Clock plumbing ----------------------------------------------------

// Advance moves the shared sim clock under the service's serialization
// lock and publishes the new time to the service.
func (s *Service) Advance(to device.Micros) error {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	err := s.sys.AdvanceTo(to)
	s.Tick(s.sys.Now())
	return err
}

// Tick publishes sim-clock progress made outside Advance (a driver
// advancing the runtime directly must call it, or the learning age
// bound and the commit journal never see time pass).
func (s *Service) Tick(now device.Micros) { s.now.Store(uint64(now)) }

// Release completes a task under the serialization lock.
func (s *Service) Release(id rtsys.TaskID) error {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	return s.mgr.Release(id)
}

// Exclusive runs fn with the runtime serialization lock held, then
// republishes the sim clock to the shards. It is the safe way for a
// driver to compose external platform mutation — fault injection,
// recovery sweeps, manual task surgery on Manager()/System() — with
// live service traffic; without it such calls race the service's
// placements. fn must not call back into the service's locked entry
// points (Advance, Release, Allocate*, ReplacePending, Exclusive).
func (s *Service) Exclusive(fn func()) {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	fn()
	s.Tick(s.sys.Now())
}

// ReplacePending re-places preempted tasks under the serialization
// lock, returning how many came back.
func (s *Service) ReplacePending() int {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	return s.mgr.ReplacePending()
}

// --- Public request paths ---------------------------------------------

// Retrieve returns the most similar implementation for req, answered on
// the caller's goroutine (answer): from the shard's token when one holds
// req, otherwise by a walk of its own.
func (s *Service) Retrieve(ctx context.Context, req casebase.Request) (retrieval.Result, error) {
	if err := retrieval.Canceled(ctx); err != nil {
		return retrieval.Result{}, err
	}
	r := s.answer(ctx, jobRetrieve, 0, req)
	return r.best, r.err
}

// answer answers a Retrieve's best-match job, or an Allocate's candidate
// job of depth n, on the caller's goroutine, inside the drain fence of
// req's shard. It refuses the job with ErrDraining once Close has begun
// and with ErrCanceled on a dead context, counting it nowhere. A
// best-match job then probes the shard's token under the token mutex,
// loading the snapshot there, and answers a hit from its token; a
// candidate job has no token and loads the snapshot plainly. Either way
// a call that starts after a commit returned answers from the new epoch.
// A job that did not hit is refused unadmitted when the request is
// invalid (a hit skips the check: a token is stored only after its walk
// validated the request), shed with *ErrOverload when the shard already
// has MaxQueue walks in flight, and otherwise walks the snapshot's
// engine. Walks never wait for each other or for a batch. Either answer
// writes one counter of the shard's stripe, inlineHits or inlineWalks,
// from which Stats derives the rest of its accounting (a batch of one
// job): a hit writes no line that callers of other shards write. The
// result carries the epoch of the snapshot that answered it. The job's
// fields come as arguments, not as a job, so that a token hit builds
// none.
func (s *Service) answer(ctx context.Context, kind jobKind, n int32, req casebase.Request) jobResult {
	sh := s.shardFor(req.Type)
	st := &sh.stripe
	st.admitted.Add(1)
	defer st.admitted.Add(-1)
	if s.closing.Load() {
		return jobResult{err: ErrDraining}
	}
	if err := retrieval.Canceled(ctx); err != nil {
		return jobResult{err: err}
	}
	var h uint64
	var sn *snapshot
	if kind == jobRetrieve {
		h = retrieval.Hash(req)
		sh.tokMu.Lock()
		sn = s.snap.Load()
		tok, hit := sn.tokens[sh.idx].Lookup(h, req)
		sh.tokMu.Unlock()
		if hit {
			st.inlineHits.Inc()
			return jobResult{best: tok.Result(), epoch: sn.epoch}
		}
	} else {
		sn = s.snap.Load()
	}
	if err := req.Validate(sn.cb); err != nil {
		return jobResult{err: err}
	}
	if w := sh.walkers.Add(1) - 1; w >= int64(s.cfg.MaxQueue) {
		sh.walkers.Add(-1)
		s.counts.shed.Inc()
		return jobResult{err: &ErrOverload{Shard: sh.idx, QueueLen: int(w), RetryAfter: retryAfter(int(w))}}
	}
	defer sh.walkers.Add(-1)
	st.inlineWalks.Inc()
	return s.walk(sn, sh, &job{kind: kind, n: n, req: req, hash: h})
}

// Allocate retrieves the N-best candidates for req on the caller's
// goroutine (answer), then feeds them to the allocation manager under
// the serialization lock. It is Manager.Request with the retrieval half
// sharded. Candidates scored against an epoch a commit has since retired
// are re-fetched (the manager's case base moved under them); after
// maxStaleRetries re-fetches the call fails with *ErrStaleEpoch. A call
// whose retrieval is refused because Close has begun returns ErrDraining
// and, like one refused before it started, is counted nowhere.
func (s *Service) Allocate(ctx context.Context, app string, req casebase.Request, basePrio int) (*alloc.Decision, error) {
	if err := s.acquire(ctx, s.shardFor(req.Type)); err != nil {
		return nil, err
	}
	defer s.inflight.Done()
	n := int32(s.cfg.Manager.NBest)
	for attempt := 0; ; attempt++ {
		r := s.answer(ctx, jobCandidates, n, req)
		if errors.Is(r.err, ErrDraining) {
			return nil, r.err
		}
		if r.err == nil {
			r.err = retrieval.Canceled(ctx)
		}
		s.allocMu.Lock()
		stale := r.err == nil && r.epoch != s.mgrEpoch
		if stale && attempt < maxStaleRetries {
			s.allocMu.Unlock()
			s.counts.staleRetries.Inc()
			continue
		}
		d, err := s.placeLocked(app, req, r, basePrio)
		if r.err == nil && !stale {
			s.now.Store(uint64(s.sys.Now()))
		}
		s.allocMu.Unlock()
		return d, err
	}
}

// maxStaleRetries bounds how many times Allocate re-fetches candidates
// when commits keep landing between its retrieval and its placement.
const maxStaleRetries = 2

// placeLocked places one request from its retrieval result: a failed
// retrieval fails the request, candidates scored against an epoch the
// manager has left fail it with *ErrStaleEpoch, and the manager places
// the rest from a copy of the candidate list (the batch's singleflight
// map may share it). Every outcome is counted. Caller holds allocMu.
func (s *Service) placeLocked(app string, req casebase.Request, r jobResult, prio int) (*alloc.Decision, error) {
	var d *alloc.Decision
	err := r.err
	if err == nil && r.epoch != s.mgrEpoch {
		err = &ErrStaleEpoch{At: r.epoch, Committed: s.mgrEpoch}
	}
	if err == nil {
		d, err = s.mgr.PlaceCandidates(app, req, append([]retrieval.Result(nil), r.list...), prio)
	}
	if err != nil {
		s.counts.allocFailed.Inc()
		return nil, err
	}
	s.counts.allocated.Inc()
	return d, nil
}

// RetrieveOutcome is one RetrieveBatch element: the result or the
// per-request error (e.g. *retrieval.ErrNoMatch).
type RetrieveOutcome struct {
	Result retrieval.Result
	Err    error
}

// RetrieveBatch retrieves every request, grouping them by shard into
// pre-formed micro-batches processed in parallel across shards. Batch
// composition depends only on the input order and the shard map, so a
// deterministic caller gets deterministic batching — the property the
// serve experiment pins. Results are positionally aligned with reqs.
func (s *Service) RetrieveBatch(ctx context.Context, reqs []casebase.Request) ([]RetrieveOutcome, error) {
	if err := s.acquire(ctx, s.shards[0]); err != nil {
		return nil, err
	}
	defer s.inflight.Done()
	jobs, err := s.fanout(ctx, reqs, jobRetrieve, 0)
	if err != nil {
		return nil, err
	}
	out := make([]RetrieveOutcome, len(reqs))
	for i := range jobs {
		out[i] = RetrieveOutcome{Result: jobs[i].res.best, Err: jobs[i].res.err}
	}
	return out, nil
}

// BatchResult is one AllocateBatch element: the decision or the
// per-request error (e.g. *alloc.ErrNoFeasible).
type BatchResult struct {
	Decision *alloc.Decision
	Err      error
}

// AllocateBatch retrieves candidates for every request in parallel
// across shards (pre-formed batches, like RetrieveBatch), then places
// them strictly in input order under the serialization lock — so the
// allocation outcome of a deterministic input is deterministic, no
// matter how the shards interleave. An element whose candidates were
// scored against an epoch a commit has since retired fails with a
// per-item *ErrStaleEpoch (the batch is not re-fetched; the caller
// retries the marked items).
func (s *Service) AllocateBatch(ctx context.Context, app string, reqs []casebase.Request, basePrio int) ([]BatchResult, error) {
	if err := s.acquire(ctx, s.shards[0]); err != nil {
		return nil, err
	}
	defer s.inflight.Done()
	jobs, err := s.fanout(ctx, reqs, jobCandidates, s.cfg.Manager.NBest)
	if err != nil {
		return nil, err
	}
	out := make([]BatchResult, len(reqs))
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	for i := range jobs {
		out[i].Decision, out[i].Err = s.placeLocked(app, reqs[i], jobs[i].res, basePrio)
	}
	s.now.Store(uint64(s.sys.Now()))
	return out, nil
}

// acquire guards the Allocate/*Batch and mutation entry points and
// registers the call on the in-flight group Close waits for: a call
// either sees ErrDraining here, or its placements or commit finish
// before Close returns. The check and the Add sit inside the drain fence
// of sh — the shard of the call's type; shard 0 for a call with no one
// type — so the group can never grow after Close started waiting on it.
func (s *Service) acquire(ctx context.Context, sh *shard) error {
	if err := retrieval.Canceled(ctx); err != nil {
		return err
	}
	sh.stripe.admitted.Add(1)
	defer sh.stripe.admitted.Add(-1)
	if s.closing.Load() {
		return ErrDraining
	}
	s.inflight.Add(1)
	return nil
}

// --- Shard routing & overload hint -------------------------------------

// shardOf is the one routing rule, for shards and learning stripes
// alike: type t belongs to partition t mod n.
func shardOf(t casebase.TypeID, n int) int { return int(t) % n }

// shardFor returns the shard that serves type t.
func (s *Service) shardFor(t casebase.TypeID) *shard { return s.shards[shardOf(t, len(s.shards))] }

// retrievalCostMicros is the §4.2 software-retrieval scale: one list
// walk on the MicroBlaze-class baseline costs on the order of 10 µs.
// It prices the walks in flight behind an overload rejection.
const retrievalCostMicros = 10

// retryAfter derives the *ErrOverload hint from the walks in flight on
// the shard at shed time: every walk ahead, and the rejected one, costs
// one list walk on the §4.2 software scale. The hint is monotone in that
// count — more walks ahead never promise a sooner retry — so clients
// backing off on it spread out instead of re-colliding.
func retryAfter(walks int) device.Micros {
	return device.Micros(walks+1) * retrievalCostMicros
}

// --- Batch execution ---------------------------------------------------

// runBatch executes one pre-formed batch of jobs (fanout splits batches
// at MaxBatch), deduplicating identical requests, and resolves every
// job. The snapshot is loaded once, after the shard mutex is taken, and
// serves the whole batch: every job of a batch is answered from one
// epoch.
func (s *Service) runBatch(sh *shard, batch []*job) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sn := s.snap.Load()
	s.noteBatch(sh, len(batch))
	defer clear(sh.seen)
	for _, j := range batch {
		if err := retrieval.Canceled(j.ctx); err != nil {
			s.counts.canceled.Inc()
			j.res = jobResult{err: err}
		} else {
			j.res = s.resolve(sn, sh, j)
		}
	}
}

// noteBatch records batch accounting for a pre-formed batch of n jobs
// on sh. Caller holds sh.mu.
func (s *Service) noteBatch(sh *shard, n int) {
	sh.stripe.batches.Inc()
	sh.stripe.batchSize.Observe(int64(n))
	for {
		cur := s.maxBatch.Load()
		if int64(n) <= cur || s.maxBatch.CompareAndSwap(cur, int64(n)) {
			break
		}
	}
}

// resolve serves one job from the batch's singleflight map, the token
// cache, or an engine walk against the sn epoch. A job shares the
// result of the first job under its key only when their requests are
// equal; on a hash collision it walks. Caller holds sh.mu.
func (s *Service) resolve(sn *snapshot, sh *shard, j *job) jobResult {
	key := j.key()
	first, ok := sh.seen[key]
	if ok && retrieval.SameRequest(first.req, j.req) {
		s.counts.dedupHits.Inc()
		return first.res
	}
	r := s.runJob(sn, sh, j)
	if !ok {
		sh.seen[key] = j
	}
	return r
}

// runJob performs the actual retrieval for one deduplicated job against
// the sn epoch: a best-match job from the shard's token cache when it
// holds the request, any other by a walk. Caller holds sh.mu.
func (s *Service) runJob(sn *snapshot, sh *shard, j *job) jobResult {
	if j.kind == jobRetrieve {
		// The shard token cache bypasses the walk for requests it has
		// already resolved ("only an availability check ... has to be
		// done", §3). The cache lives inside the snapshot and is born
		// empty at each epoch, so a token can only ever bypass retrieval
		// against the exact tree it was minted from.
		sh.tokMu.Lock()
		tok, ok := sn.tokens[sh.idx].Lookup(j.hash, j.req)
		sh.tokMu.Unlock()
		if ok {
			sh.stripe.tokenHits.Inc()
			return jobResult{best: tok.Result(), epoch: sn.epoch}
		}
	}
	sh.stripe.walks.Inc()
	return s.walk(sn, sh, j)
}

// walk runs j's engine walk against the sn epoch, in a batch or for
// answer, whichever counted it: the N-best list of a candidate job, or
// the best match of a best-match job, which it keeps as a token of the
// epoch.
func (s *Service) walk(sn *snapshot, sh *shard, j *job) jobResult {
	if j.kind == jobCandidates {
		list, err := sn.engine.RetrieveN(j.req, int(j.n))
		return jobResult{list: list, epoch: sn.epoch, err: err}
	}
	r, err := sn.engine.Retrieve(j.req)
	if err != nil {
		return jobResult{epoch: sn.epoch, err: err}
	}
	sh.store(sn.tokens[sh.idx], j.hash, j.req, r)
	return jobResult{best: r, epoch: sn.epoch}
}

// store keeps r, the walk's answer to req (whose Hash is h), as a token
// in tokens, one of this shard's caches, under tokMu.
func (sh *shard) store(tokens *retrieval.TokenCache, h uint64, req casebase.Request, r retrieval.Result) {
	tok := retrieval.Token{Type: r.Type, Impl: r.Impl, Target: r.Target, Name: r.Name, Similarity: r.Similarity}
	sh.tokMu.Lock()
	tokens.Store(h, req, tok)
	sh.tokMu.Unlock()
}

// fanout runs reqs as pre-formed micro-batches: one job per valid
// request, grouped by shard, each group split at MaxBatch and run
// through runBatch, in parallel across shards. An invalid request gets
// its validation error and joins no batch. The jobs, whose res fields
// hold the results, are positionally aligned with reqs.
func (s *Service) fanout(ctx context.Context, reqs []casebase.Request, kind jobKind, n int) ([]job, error) {
	jobs := make([]job, len(reqs))
	groups := make([][]*job, len(s.shards))
	cb := s.CaseBase()
	for i, r := range reqs {
		if jobs[i].res.err = r.Validate(cb); jobs[i].res.err != nil {
			continue
		}
		jobs[i] = job{ctx: ctx, kind: kind, req: r, n: int32(n), hash: retrieval.Hash(r)}
		si := shardOf(r.Type, len(s.shards))
		groups[si] = append(groups[si], &jobs[i])
	}
	var wg sync.WaitGroup
	for si, g := range groups {
		if len(g) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh *shard, g []*job) {
			defer wg.Done()
			for len(g) > 0 {
				nb := min(len(g), s.cfg.MaxBatch)
				s.runBatch(sh, g[:nb])
				g = g[nb:]
			}
		}(s.shards[si], g)
	}
	wg.Wait()
	if err := retrieval.Canceled(ctx); err != nil {
		return nil, err
	}
	return jobs, nil
}
