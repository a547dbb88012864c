package qosalloc

// Functional options (DESIGN.md §9). The entry points — NewService,
// NewRetrievalEngine, NewAllocationManager, NewFleet — take a variadic
// Option list drawn from one shared vocabulary, so the same
// WithThreshold, WithLocalMeasure and WithAmalgamation tune a standalone
// engine, the engine a manager or fleet walks, or the whole service, and
// new knobs never break existing call sites.

import (
	"qosalloc/internal/alloc"
	"qosalloc/internal/obs"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/serve"
)

// config is the merged option state every constructor draws from;
// each constructor reads the fields relevant to it and ignores the
// rest (a WithShards passed to NewRetrievalEngine is harmless).
type config struct {
	serve serve.Config
	reg   *obs.Registry

	// Fleet construction state (NewFleet only): nodes, tenant→class
	// bindings and class budgets, all kept in declaration order so a
	// fleet built from the same option list replays bit-identically.
	fleetNodes   []fleetNodeSpec
	tenantBinds  []tenantBinding
	classBudgets []classBudgetDef
}

// Option configures an entry point (NewService, NewRetrievalEngine,
// NewAllocationManager, NewFleet).
type Option func(*config)

// WithShards sets how many retrieval engines the service partitions the
// case base across (service only).
func WithShards(n int) Option { return func(c *config) { c.serve.Shards = n } }

// WithMaxBatch bounds how many requests of a RetrieveBatch or
// AllocateBatch one shard runs as one micro-batch (service only).
func WithMaxBatch(n int) Option { return func(c *config) { c.serve.MaxBatch = n } }

// WithMaxQueue bounds each shard's concurrent walks; a Retrieve or
// Allocate that would walk beyond it is shed with *ErrOverload (service
// only).
func WithMaxQueue(n int) Option { return func(c *config) { c.serve.MaxQueue = n } }

// WithThreshold rejects retrieval results whose similarity falls below
// t; a manager, fleet or service built with it places none of them.
func WithThreshold(t float64) Option { return func(c *config) { c.serve.Engine.Threshold = t } }

// WithLocalMeasure replaces the eq. (1) linear local similarity.
func WithLocalMeasure(m LocalMeasure) Option { return func(c *config) { c.serve.Engine.Local = m } }

// WithAmalgamation replaces the eq. (2) weighted-sum amalgamation.
func WithAmalgamation(a Amalgamation) Option {
	return func(c *config) { c.serve.Engine.Amalgamation = a }
}

// WithNBest bounds how many retrieval candidates the allocation layer
// checks for feasibility (§5 n-most-similar extension).
func WithNBest(n int) Option { return func(c *config) { c.serve.Manager.NBest = n } }

// WithPreemption permits evicting strictly lower-priority tasks when
// the best match has no free capacity.
func WithPreemption(allow bool) Option {
	return func(c *config) { c.serve.Manager.AllowPreemption = allow }
}

// WithBypassTokens enables the §3 repeated-call shortcut of
// Manager.Request, so it matters only for NewAllocationManager. A
// NewService ignores it: the service places through
// Manager.PlaceCandidates, which never reads or stores the manager's
// tokens, and its shards keep their own tokens either way.
func WithBypassTokens(use bool) Option {
	return func(c *config) { c.serve.Manager.UseBypassTokens = use }
}

// WithPowerWeight trades QoS similarity against power when ranking
// candidates (zero keeps the paper's pure-similarity ranking).
func WithPowerWeight(w float64) Option { return func(c *config) { c.serve.Manager.PowerWeight = w } }

// WithLearning turns on live case-base mutation (service only): the
// Service's Observe/Retain/Retire/CommitNow commit through the epoch
// snapshot pipeline while readers keep retrieving. alpha is the EWMA
// weight of new observations in (0, 1] (out of range falls back to the
// default 0.5); foldThreshold trips a commit once that many attribute
// values carry pending LSB-visible revisions (<= 0 falls back to 64);
// maxAge trips a commit once the oldest pending observation is that old
// on the sim clock (0 disables the age bound). Without this option the
// case base is frozen and mutation calls return ErrLearningOff.
func WithLearning(alpha float64, foldThreshold int, maxAge Micros) Option {
	return func(c *config) {
		c.serve.Learning = serve.LearnConfig{
			Enabled:       true,
			Alpha:         alpha,
			FoldThreshold: foldThreshold,
			MaxAge:        maxAge,
		}
	}
}

// WithRegistry instruments the constructed component on reg — the
// service wires its own metrics plus every shard engine and the
// manager; engines and managers wire their layer's bundle.
func WithRegistry(reg *ObsRegistry) Option { return func(c *config) { c.reg = reg } }

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}

// --- Service (the concurrent allocation front end) ---------------------

// Service-layer types (DESIGN.md §9).
type (
	// Service is the concurrent allocation service: the case base
	// sharded by type, each Retrieve and Allocate answered on the
	// caller's goroutine from a bypass token or by a walk of its own,
	// batch calls coalesced into deduplicated micro-batches, a bound on
	// each shard's concurrent walks, and placements serialized into the
	// allocation manager. Safe for concurrent use; create with
	// NewService, dispose with Close.
	Service = serve.Service
	// ServiceConfig is the explicit configuration behind the Options.
	ServiceConfig = serve.Config
	// ServiceStats snapshots the service counters.
	ServiceStats = serve.Stats
	// ErrOverload is the typed admission-control rejection with its
	// retry-after hint.
	ErrOverload = serve.ErrOverload
	// RetrieveOutcome is one Service.RetrieveBatch element.
	RetrieveOutcome = serve.RetrieveOutcome
	// BatchResult is one Service.AllocateBatch element.
	BatchResult = serve.BatchResult
)

// Service-layer sentinel errors.
var (
	// ErrServiceClosed reports calls into a closed Service.
	ErrServiceClosed = serve.ErrClosed
	// ErrServiceDraining reports calls into a Service whose graceful
	// shutdown has begun: admission is closed but calls already admitted
	// are still finishing. It wraps ErrServiceClosed, so existing
	// errors.Is(err, ErrServiceClosed) checks keep rejecting, while a
	// front end can distinguish drain (retry another replica soon) via
	// errors.Is(err, ErrServiceDraining).
	ErrServiceDraining = serve.ErrDraining
	// ErrCanceled marks retrievals abandoned because the caller's
	// context died; errors.Is(err, ErrCanceled) and context.Cause both
	// work on it.
	ErrCanceled = retrieval.ErrCanceled
)

// NewService builds the concurrent allocation service over a case base
// and runtime:
//
//	svc := qosalloc.NewService(cb, rt,
//		qosalloc.WithShards(8),
//		qosalloc.WithThreshold(0.7),
//		qosalloc.WithRegistry(reg))
//	defer svc.Close()
//	d, err := svc.Allocate(ctx, "mp3", req, 5)
func NewService(cb *CaseBase, rt *Runtime, opts ...Option) *Service {
	c := buildConfig(opts)
	s := serve.New(cb, rt, c.serve)
	s.Instrument(c.reg) // nil registry yields dangling bundles (no-op)
	return s
}

// --- Constructors for the lower layers ---------------------------------

// NewRetrievalEngine returns the reference retrieval engine over cb.
// Zero options give the paper's measure: eq. (1) linear local
// similarity and eq. (2) weighted-sum amalgamation. Its RetrieveAll
// gives each result's per-attribute breakdown (Result.Locals).
func NewRetrievalEngine(cb *CaseBase, opts ...Option) *Engine {
	c := buildConfig(opts)
	e := retrieval.NewEngine(cb, c.serve.Engine)
	e.Instrument(retrieval.NewMetrics(c.reg))
	return e
}

// NewAllocationManager builds the allocation manager over a case base
// and runtime. It retrieves on the engine NewRetrievalEngine builds from
// the same options (WithThreshold, WithLocalMeasure, WithAmalgamation).
func NewAllocationManager(cb *CaseBase, rt *Runtime, opts ...Option) *Manager {
	c := buildConfig(opts)
	m := alloc.New(NewRetrievalEngine(cb, opts...), rt, c.serve.Manager)
	m.Instrument(c.reg)
	return m
}
