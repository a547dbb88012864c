package serve

import (
	"fmt"

	"qosalloc/internal/obs"
)

// batchBuckets are the batch-size histogram bounds: powers of two up to
// the largest batch a shard will ever coalesce.
var batchBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128}

// counts are the service's counters: Stats and EpochStats read them and
// Instrument attaches each one that has a series (batchedJobs shows as
// the batch-size histogram's sum), so each fact is counted once.
// Commits are counted by reason; their sum is EpochStats.Commits.
type counts struct {
	enqueued, shed, batches, batchedJobs  obs.Counter
	dedupHits, tokenHits, inlineHits      obs.Counter
	walks, inlineWalks                    obs.Counter
	canceled, drainFlushed                obs.Counter
	allocated, allocFailed                obs.Counter
	folds, retained, retired, manual      obs.Counter
	observations, foldedObs, staleRetries obs.Counter
}

// attach exports the counts on reg. Retain and Retire commits share the
// structural series, which reports their sum.
func (c *counts) attach(reg *obs.Registry) {
	reg.Attach("qos_serve_enqueued_total", "requests admitted to a shard: queued, or answered inline", &c.enqueued)
	reg.Attach("qos_serve_shed_total", "requests refused by admission control (ErrOverload)", &c.shed)
	reg.Attach("qos_serve_batches_total", "micro-batches processed across all shards", &c.batches)
	reg.Attach("qos_serve_dedup_hits_total", "in-batch requests served by another job's retrieval (singleflight)", &c.dedupHits)
	reg.Attach("qos_serve_token_hits_total", "retrievals bypassed by a shard token-cache hit", &c.tokenHits)
	reg.Attach("qos_serve_inline_hits_total", "token hits answered on the caller's goroutine, without the hop to the shard worker", &c.inlineHits)
	reg.Attach("qos_serve_inline_walks_total", "token misses walked on the caller's goroutine, without the hop to the shard worker", &c.inlineWalks)
	reg.Attach("qos_serve_canceled_total", "jobs dropped because the caller's context died", &c.canceled)
	reg.Attach("qos_serve_drain_flushed_total", "queued jobs answered during the shutdown flush", &c.drainFlushed)
	reg.Attach("qos_serve_allocations_total{outcome=\"placed\"}", "allocation calls that placed a variant", &c.allocated)
	reg.Attach("qos_serve_allocations_total{outcome=\"failed\"}", "allocation calls that returned an error", &c.allocFailed)
	reg.Attach("qos_serve_commits_total{reason=\"fold\"}", "epoch commits tripped by the fold policy (threshold or age)", &c.folds)
	reg.Attach("qos_serve_commits_total{reason=\"structural\"}", "epoch commits forced by Retain/Retire", &c.retained)
	reg.Attach("qos_serve_commits_total{reason=\"structural\"}", "", &c.retired)
	reg.Attach("qos_serve_commits_total{reason=\"manual\"}", "epoch commits forced by CommitNow", &c.manual)
	reg.Attach("qos_serve_observations_total", "run-time observations accumulated into writer deltas", &c.observations)
	reg.Attach("qos_serve_folded_attrs_total", "attribute values folded from deltas into committed snapshots", &c.foldedObs)
	reg.Attach("qos_serve_stale_retries_total", "Allocate candidate fetches retried because a commit landed in between", &c.staleRetries)
}

// metrics is the service's histogram and gauges. Like the retrieval
// bundle, an uninstrumented service carries a dangling bundle over a nil
// registry: the hot path never branches on "is observability on".
// Per-shard gauges are labeled series of one base metric, so the
// exposition groups them under shared HELP/TYPE.
type metrics struct {
	batchSize *obs.Histogram

	draining *obs.Gauge // 1 once Close has begun
	epoch    *obs.Gauge // committed case-base epoch (1 until a commit)

	queueDepth []*obs.Gauge // per shard
	busy       []*obs.Gauge // per shard, 0/1 occupancy
}

// newMetrics registers the serve histogram and gauges for n shards on
// reg (nil yields a dangling bundle).
func newMetrics(reg *obs.Registry, n int) *metrics {
	m := &metrics{
		draining:  reg.Gauge("qos_serve_draining", "1 once service shutdown (drain) has begun"),
		batchSize: reg.Histogram("qos_serve_batch_size", "requests coalesced per micro-batch", batchBuckets),
		epoch:     reg.Gauge("qos_serve_epoch", "committed case-base epoch installed by the snapshot swap"),
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
