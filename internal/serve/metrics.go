package serve

import (
	"fmt"

	"qosalloc/internal/obs"
)

// batchBuckets are the batch-size histogram bounds: powers of two up to
// the largest batch a shard will ever coalesce.
var batchBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128}

// metrics is the observability bundle of the service layer. Like the
// retrieval bundle, an uninstrumented service carries a dangling bundle
// over a nil registry: the hot path never branches on "is observability
// on". Per-shard gauges are labeled series of one base metric, so the
// exposition groups them under shared HELP/TYPE.
type metrics struct {
	enqueued     *obs.Counter
	shed         *obs.Counter
	batches      *obs.Counter
	dedup        *obs.Counter
	tokenHits    *obs.Counter
	inlineHits   *obs.Counter
	canceled     *obs.Counter
	drainFlushed *obs.Counter
	allocOK      *obs.Counter
	allocFail    *obs.Counter

	batchSize *obs.Histogram

	draining *obs.Gauge // 1 once Close/Drain has begun
	epoch    *obs.Gauge // committed case-base epoch (1 until a commit)

	commitsFold       *obs.Counter
	commitsStructural *obs.Counter
	commitsManual     *obs.Counter
	observations      *obs.Counter
	foldedObs         *obs.Counter
	staleRetries      *obs.Counter

	queueDepth []*obs.Gauge // per shard
	busy       []*obs.Gauge // per shard, 0/1 occupancy
}

// newMetrics registers the serve metric set for n shards on reg (nil
// yields a dangling bundle).
func newMetrics(reg *obs.Registry, n int) *metrics {
	m := &metrics{
		enqueued:  reg.Counter("qos_serve_enqueued_total", "requests admitted to a shard: queued, or token hits answered inline"),
		shed:      reg.Counter("qos_serve_shed_total", "requests refused by admission control (ErrOverload)"),
		batches:   reg.Counter("qos_serve_batches_total", "micro-batches processed across all shards"),
		dedup:     reg.Counter("qos_serve_dedup_hits_total", "in-batch requests served by another job's retrieval (singleflight)"),
		tokenHits: reg.Counter("qos_serve_token_hits_total", "retrievals bypassed by a shard token-cache hit"),
		inlineHits: reg.Counter("qos_serve_inline_hits_total",
			"token hits answered on the caller's goroutine, without the hop to the shard worker"),
		canceled: reg.Counter("qos_serve_canceled_total", "jobs dropped because the caller's context died"),
		drainFlushed: reg.Counter("qos_serve_drain_flushed_total",
			"queued jobs answered during the shutdown flush"),
		draining:  reg.Gauge("qos_serve_draining", "1 once service shutdown (drain) has begun"),
		allocOK:   reg.Counter("qos_serve_allocations_total{outcome=\"placed\"}", "allocation calls that placed a variant"),
		allocFail: reg.Counter("qos_serve_allocations_total{outcome=\"failed\"}", "allocation calls that returned an error"),
		batchSize: reg.Histogram("qos_serve_batch_size", "requests coalesced per micro-batch", batchBuckets),
		epoch:     reg.Gauge("qos_serve_epoch", "committed case-base epoch installed by the snapshot swap"),
		commitsFold: reg.Counter("qos_serve_commits_total{reason=\"fold\"}",
			"epoch commits tripped by the fold policy (threshold or age)"),
		commitsStructural: reg.Counter("qos_serve_commits_total{reason=\"structural\"}",
			"epoch commits forced by Retain/Retire"),
		commitsManual: reg.Counter("qos_serve_commits_total{reason=\"manual\"}",
			"epoch commits forced by CommitNow"),
		observations: reg.Counter("qos_serve_observations_total",
			"run-time observations accumulated into writer deltas"),
		foldedObs: reg.Counter("qos_serve_folded_attrs_total",
			"attribute values folded from deltas into committed snapshots"),
		staleRetries: reg.Counter("qos_serve_stale_retries_total",
			"Allocate candidate fetches retried because a commit landed in between"),
	}
	for i := 0; i < n; i++ {
		m.queueDepth = append(m.queueDepth, reg.Gauge(
			fmt.Sprintf("qos_serve_queue_depth{shard=%q}", fmt.Sprint(i)),
			"requests waiting in a shard's admission queue"))
		m.busy = append(m.busy, reg.Gauge(
			fmt.Sprintf("qos_serve_shard_busy{shard=%q}", fmt.Sprint(i)),
			"1 while the shard's engine is scoring a batch"))
	}
	return m
}
