package serve

import (
	"sync/atomic"

	"qosalloc/internal/obs"
)

// batchBuckets are the batch-size histogram bounds: powers of two up to
// the largest batch a shard will ever run.
var batchBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128}

// counts are the service's cold-path counters (each shard keeps the
// hot-path ones in its stripe): Stats and EpochStats read them and
// Instrument attaches each one that has a series, so each fact is
// counted once. Commits are counted by reason; their sum is
// EpochStats.Commits.
type counts struct {
	shed, dedupHits, canceled             obs.Counter
	allocated, allocFailed                obs.Counter
	folds, retained, retired, manual      obs.Counter
	observations, foldedObs, staleRetries obs.Counter
}

// attach exports the counts on reg. Retain and Retire commits share the
// structural series, which reports their sum.
func (c *counts) attach(reg *obs.Registry) {
	reg.Attach("qos_serve_shed_total", "requests refused by admission control (ErrOverload)", &c.shed)
	reg.Attach("qos_serve_dedup_hits_total", "in-batch requests served by another job's retrieval (singleflight)", &c.dedupHits)
	reg.Attach("qos_serve_canceled_total", "jobs dropped because the caller's context died", &c.canceled)
	reg.Attach("qos_serve_allocations_total{outcome=\"placed\"}", "allocation calls that placed a variant", &c.allocated)
	reg.Attach("qos_serve_allocations_total{outcome=\"failed\"}", "allocation calls that failed (not refused with ErrDraining)", &c.allocFailed)
	reg.Attach("qos_serve_commits_total{reason=\"fold\"}", "epoch commits tripped by the fold policy (threshold or age)", &c.folds)
	reg.Attach("qos_serve_commits_total{reason=\"structural\"}", "epoch commits forced by Retain/Retire", &c.retained)
	reg.Attach("qos_serve_commits_total{reason=\"structural\"}", "", &c.retired)
	reg.Attach("qos_serve_commits_total{reason=\"manual\"}", "epoch commits forced by CommitNow", &c.manual)
	reg.Attach("qos_serve_observations_total", "run-time observations accumulated into writer deltas", &c.observations)
	reg.Attach("qos_serve_folded_attrs_total", "attribute values folded from deltas into committed snapshots", &c.foldedObs)
	reg.Attach("qos_serve_stale_retries_total", "Allocate candidate fetches retried because a commit landed in between", &c.staleRetries)
}

// stripeSpan is the span in bytes that two shards' hot words must never
// share: two 64-byte cache lines, which the adjacent-line prefetcher
// moves as a pair.
const stripeSpan = 128

// stripe is one shard's hot-path counters, its batch-size histogram and
// its drain-fence count: all that a call on the shard writes besides the
// shard's mutexes and its token table, so that an inline answer writes
// no line another shard's callers write. It is the last field of its
// shard, and its trailing pad keeps whatever the allocator places next
// (another shard, whose hot words come first) stripeSpan bytes away.
// TestShardLayout pins this.
//
// Each fact is written once. An answer on the caller's goroutine
// (Service.answer) counts one inline hit or one inline walk, and
// nothing else; batches, batchSize, tokenHits and walks count the
// pre-formed batches alone. Every total that includes inline answers —
// enqueued jobs, batches of one, batched jobs, token hits, walks — is
// derived when it is read: Stats sums the stripes and adds the inline
// counts where they belong, and Instrument attaches the inline counters
// under each series they add to, which sums them as Stats does.
type stripe struct {
	batches, tokenHits, walks obs.Counter    // pre-formed batches only
	inlineHits, inlineWalks   obs.Counter    // answers on the caller's goroutine
	batchSize                 *obs.Histogram // jobs per pre-formed batch
	// admitted counts the calls inside this shard's drain fence (see
	// Service.closing).
	admitted atomic.Int64
	_        [stripeSpan]byte
}

// attach exports the stripe's counters and histogram on reg, each
// inline counter under every series it adds to; in the batch-size
// histogram, each inline answer is one batch of one job. walks shows as
// the Stats field alone.
func (st *stripe) attach(reg *obs.Registry) {
	reg.Attach("qos_serve_batches_total", "micro-batches processed across all shards", &st.batches)
	reg.AttachHistogram("qos_serve_batch_size", "requests coalesced per micro-batch", st.batchSize)
	reg.Attach("qos_serve_token_hits_total", "retrievals bypassed by a shard token-cache hit", &st.tokenHits)
	reg.Attach("qos_serve_token_hits_total", "", &st.inlineHits)
	reg.Attach("qos_serve_inline_hits_total", "token hits answered on the caller's goroutine, without the hop to the shard worker", &st.inlineHits)
	reg.Attach("qos_serve_inline_walks_total", "token misses and Allocate candidate lists walked on the caller's goroutine, without the hop to the shard worker", &st.inlineWalks)
	for _, c := range []*obs.Counter{&st.inlineHits, &st.inlineWalks} {
		reg.Attach("qos_serve_enqueued_total", "requests admitted to a shard: queued, or answered inline", c)
		reg.Attach("qos_serve_batches_total", "", c)
		reg.AttachHistogramCounter("qos_serve_batch_size", "", batchBuckets, 1, c)
	}
}

// metrics is the service's gauges. Like the retrieval bundle, an
// uninstrumented service carries a dangling bundle over a nil registry:
// the hot path never branches on "is observability on".
type metrics struct {
	draining *obs.Gauge // 1 once Close has begun
	epoch    *obs.Gauge // committed case-base epoch (1 until a commit)
}

// newMetrics registers the serve gauges on reg (nil yields a dangling
// bundle).
func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		draining: reg.Gauge("qos_serve_draining", "1 once service shutdown (drain) has begun"),
		epoch:    reg.Gauge("qos_serve_epoch", "committed case-base epoch installed by the snapshot swap"),
	}
}
