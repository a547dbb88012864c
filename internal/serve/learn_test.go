package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/learn"
	"qosalloc/internal/obs"
	"qosalloc/internal/retrieval"
)

// learnConfig is the test default: deterministic EWMA replacement and a
// small fold threshold so tests trip commits without bulk traffic.
func learnConfig(threshold int, maxAge device.Micros) LearnConfig {
	return LearnConfig{Enabled: true, Alpha: 1, FoldThreshold: threshold, MaxAge: maxAge}
}

// nudged returns a measured value guaranteed to differ from the
// committed one by exactly one LSB while staying inside design bounds.
func nudged(t *testing.T, cb *casebase.CaseBase, id attr.ID, committed attr.Value) attr.Value {
	t.Helper()
	d, ok := cb.Registry().Lookup(id)
	if !ok {
		t.Fatalf("attribute %d undefined", id)
	}
	if committed < d.Hi {
		return committed + 1
	}
	return committed - 1
}

func TestMutationAPIRequiresLearning(t *testing.T) {
	cb, _, _ := genWorkload(t, 1, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 2})
	defer s.Close()

	ft := cb.Types()[0]
	if err := s.Observe(learn.Observation{Type: ft.ID, Impl: ft.Impls[0].ID}); !errors.Is(err, ErrLearningOff) {
		t.Errorf("Observe = %v, want ErrLearningOff", err)
	}
	if _, err := s.Retain(ft.ID, casebase.Implementation{}, 0); !errors.Is(err, ErrLearningOff) {
		t.Errorf("Retain = %v, want ErrLearningOff", err)
	}
	if err := s.Retire(ft.ID, 1, 0); !errors.Is(err, ErrLearningOff) {
		t.Errorf("Retire = %v, want ErrLearningOff", err)
	}
	if _, err := s.CommitNow(); !errors.Is(err, ErrLearningOff) {
		t.Errorf("CommitNow = %v, want ErrLearningOff", err)
	}
	if e := s.Epoch(); e != 1 {
		t.Errorf("Epoch = %d, want 1", e)
	}
	// The empty journal has a fixed digest (fnv64a offset basis).
	if h := s.ReplayHash(); h != "fnv64a:cbf29ce484222325" {
		t.Errorf("empty ReplayHash = %q", h)
	}
}

func TestCommitNowBumpsEpochAndJournals(t *testing.T) {
	cb, _, _ := genWorkload(t, 1, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 2, Learning: learnConfig(64, 0)})
	defer s.Close()

	s.Tick(123)
	epoch, err := s.CommitNow()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 || s.Epoch() != 2 {
		t.Fatalf("epoch = %d / %d, want 2", epoch, s.Epoch())
	}
	j := s.Journal()
	if len(j) != 1 || j[0] != "epoch=2 t=123 reason=manual changed=0 folded_obs=0" {
		t.Fatalf("journal = %q", j)
	}
	st := s.EpochStats()
	if st.Commits != 1 || st.Folds != 0 || st.Epoch != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestManagerWalksSnapshotEngine pins that the service builds one engine
// per epoch: the manager walks the snapshot's engine from New on, and a
// commit hands it the new snapshot's engine.
func TestManagerWalksSnapshotEngine(t *testing.T) {
	cb, _, _ := genWorkload(t, 1, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 2, Learning: learnConfig(64, 0)})
	defer s.Close()
	first := s.snap.Load().engine
	if s.Manager().Engine() != first {
		t.Fatal("manager does not walk the first snapshot's engine")
	}
	if _, err := s.CommitNow(); err != nil {
		t.Fatal(err)
	}
	if cur := s.snap.Load().engine; cur == first || s.Manager().Engine() != cur {
		t.Fatal("after CommitNow the manager does not walk the new snapshot's engine")
	}
}

// TestReplayHashFoldsJournalAtAppend checks the running digest: after
// every commit, ReplayHash equals a fresh fnv64a fold over Journal().
func TestReplayHashFoldsJournalAtAppend(t *testing.T) {
	cb, _, _ := genWorkload(t, 1, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 2, Learning: learnConfig(64, 0)})
	defer s.Close()
	for i := 1; i <= 20; i++ {
		s.Tick(device.Micros(i) * 100)
		if _, err := s.CommitNow(); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, line := range s.Journal() {
			_, _ = h.Write([]byte(line + "\n"))
		}
		if got, want := s.ReplayHash(), fmt.Sprintf("fnv64a:%016x", h.Sum64()); got != want {
			t.Fatalf("after %d commits: ReplayHash %s, fold over the journal %s", i, got, want)
		}
	}
}

// TestFoldThresholdTripsCommit pins the deferred net-commit contract:
// observations accumulate without committing until the configured number
// of LSB-visible revisions is pending, then one fold installs them all.
func TestFoldThresholdTripsCommit(t *testing.T) {
	cb, _, _ := genWorkload(t, 1, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 4, Learning: learnConfig(4, 0)})
	defer s.Close()

	ft := cb.Types()[0]
	im := ft.Impls[0]
	want := make(map[attr.ID]attr.Value)
	for i := 0; i < 4; i++ {
		p := im.Attrs[i]
		v := nudged(t, cb, p.ID, p.Value)
		want[p.ID] = v
		err := s.Observe(learn.Observation{
			Type: ft.ID, Impl: im.ID,
			Measured: []attr.Pair{{ID: p.ID, Value: v}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if i < 3 && s.Epoch() != 1 {
			t.Fatalf("committed after %d observations, want 4", i+1)
		}
	}
	if s.Epoch() != 2 {
		t.Fatalf("epoch = %d after threshold, want 2", s.Epoch())
	}
	st := s.EpochStats()
	if st.Folds != 1 || st.Commits != 1 || st.Observations != 4 || st.FoldedObs != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PendingObs != 0 || st.PendingRevs != 0 {
		t.Fatalf("pending state survived the fold: %+v", st)
	}
	j := s.Journal()
	if len(j) != 1 || !strings.Contains(j[0], "reason=fold") || !strings.Contains(j[0], "folded_obs=4") {
		t.Fatalf("journal = %q", j)
	}
	// The committed tree carries the folded values.
	ft2, _ := s.CaseBase().Type(ft.ID)
	im2, _ := ft2.Impl(im.ID)
	for id, v := range want {
		if got, _ := im2.Attr(id); got != v {
			t.Errorf("attr %d = %d after fold, want %d", id, got, v)
		}
	}
}

// TestMaxAgeTripsCommit pins the sim-time age bound: pending LSB-visible
// state older than MaxAge commits at the next mutation entry point.
func TestMaxAgeTripsCommit(t *testing.T) {
	cb, _, _ := genWorkload(t, 1, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 2, Learning: learnConfig(1000, 100)})
	defer s.Close()

	ft := cb.Types()[0]
	im := ft.Impls[0]
	obsFor := func(i int) learn.Observation {
		p := im.Attrs[i]
		return learn.Observation{Type: ft.ID, Impl: im.ID,
			Measured: []attr.Pair{{ID: p.ID, Value: nudged(t, cb, p.ID, p.Value)}}}
	}
	s.Tick(10)
	if err := s.Observe(obsFor(0)); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 1 {
		t.Fatal("committed before the age bound")
	}
	s.Tick(200) // 190 µs past the first pending observation
	if err := s.Observe(obsFor(1)); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2 (age bound)", s.Epoch())
	}
	if st := s.EpochStats(); st.Folds != 1 || st.FoldedObs != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetainAssignsIDAndStoresBlob(t *testing.T) {
	cb, _, _ := genWorkload(t, 1, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 2, Learning: learnConfig(64, 0)})
	defer s.Close()

	ft := cb.Types()[0]
	src := ft.Impls[0]
	im := casebase.Implementation{
		Name: "retained-v1", Target: src.Target,
		Attrs: append([]attr.Pair(nil), src.Attrs...),
		Foot:  src.Foot,
	}
	id, err := s.Retain(ft.ID, im, 0)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("Retain assigned ID 0")
	}
	if s.Epoch() != 2 {
		t.Fatalf("epoch = %d after retain, want 2", s.Epoch())
	}
	ft2, _ := s.CaseBase().Type(ft.ID)
	got, ok := ft2.Impl(id)
	if !ok || got.Name != "retained-v1" {
		t.Fatalf("retained variant missing from committed tree: %+v, %v", got, ok)
	}
	// The repository blob landed atomically with the epoch.
	if _, ok := s.System().Repository().Lookup(ft.ID, id); !ok {
		t.Fatal("retained variant has no repository blob")
	}
	if st := s.EpochStats(); st.Retained != 1 {
		t.Fatalf("stats = %+v", st)
	}

	if err := s.Retire(ft.ID, id, 0); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 3 {
		t.Fatalf("epoch = %d after retire, want 3", s.Epoch())
	}
	ft3, _ := s.CaseBase().Type(ft.ID)
	if _, ok := ft3.Impl(id); ok {
		t.Fatal("retired variant still in committed tree")
	}
	if st := s.EpochStats(); st.Retired != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStaleEpochPrecondition(t *testing.T) {
	cb, _, _ := genWorkload(t, 1, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 2, Learning: learnConfig(64, 0)})
	defer s.Close()

	before := s.Epoch() // 1
	if _, err := s.CommitNow(); err != nil {
		t.Fatal(err)
	}
	ft := cb.Types()[0]
	err := s.Retire(ft.ID, ft.Impls[1].ID, before)
	var stale *ErrStaleEpoch
	if !errors.As(err, &stale) {
		t.Fatalf("Retire at stale epoch = %v, want *ErrStaleEpoch", err)
	}
	if stale.At != before || stale.Committed != 2 {
		t.Fatalf("stale = %+v", stale)
	}
	if _, err := s.Retain(ft.ID, casebase.Implementation{}, before); !errors.As(err, &stale) {
		t.Fatalf("Retain at stale epoch = %v, want *ErrStaleEpoch", err)
	}
	// Conditioning on the committed epoch succeeds.
	if err := s.Retire(ft.ID, ft.Impls[1].ID, s.Epoch()); err != nil {
		t.Fatal(err)
	}
}

// TestRetireInvalidatesBypassTokens is the token-staleness regression:
// tokenize a variant through the repeat path, retire it, and the next
// retrieval must re-walk the new epoch's engine — never serve the
// retired implementation from a stale token.
func TestRetireInvalidatesBypassTokens(t *testing.T) {
	cb, _, reqs := genWorkload(t, 24, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 2, MaxBatch: 8, Learning: learnConfig(64, 0)})
	defer s.Close()

	ctx := context.Background()
	req := []casebase.Request{reqs[0]}
	out, err := s.RetrieveBatch(ctx, req)
	if err != nil || out[0].Err != nil {
		t.Fatal(err, out[0].Err)
	}
	victim := out[0].Result
	// Second pass serves from the minted token.
	if _, err := s.RetrieveBatch(ctx, req); err != nil {
		t.Fatal(err)
	}
	if s.Stats().TokenHits == 0 {
		t.Fatal("repeat retrieval minted no token")
	}

	if err := s.Retire(victim.Type, victim.Impl, 0); err != nil {
		t.Fatal(err)
	}
	out, err = s.RetrieveBatch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err == nil && out[0].Result.Type == victim.Type && out[0].Result.Impl == victim.Impl {
		t.Fatalf("stale bypass: retired variant %d/%d still served", victim.Type, victim.Impl)
	}
	// And the post-retire answer is exactly a fresh walk of the new tree.
	want, wantErr := retrieval.NewEngine(s.CaseBase(), retrieval.Options{}).Retrieve(reqs[0])
	if (out[0].Err == nil) != (wantErr == nil) || !reflect.DeepEqual(out[0].Result, want) {
		t.Fatalf("post-retire result %+v (err %v) != fresh walk %+v (err %v)",
			out[0].Result, out[0].Err, want, wantErr)
	}
}

// TestInlineHitsAcrossEpochSwap runs Retrieve callers over a hot set,
// so most calls are token hits answered on the callers' goroutines,
// mixed with cold requests that no earlier call resolved, which miss
// and walk on the callers' goroutines, while a driver retires the
// implementation one hot token pins and then forces a commit. Every
// answer, hit or miss, must be a fresh walk over the tree before or
// after the swap; a call that starts after CommitNow returns must get
// the after-swap answer, never the retired implementation; and the
// inline path must keep both conservation laws.
func TestInlineHitsAcrossEpochSwap(t *testing.T) {
	const callers, minCalls, tail, coldPer = 4, 400, 200, 200
	cb, _, reqs := genWorkload(t, 16+callers*coldPer, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 4, MaxQueue: 4096, Learning: learnConfig(64, 0)})
	defer s.Close()
	reg := obs.NewRegistry()
	s.Instrument(reg)
	hot := reqs[:16]
	walk := func(cb *casebase.CaseBase) []walkOutcome {
		eng := retrieval.NewEngine(cb, retrieval.Options{})
		out := make([]walkOutcome, len(reqs))
		for i, req := range reqs {
			r, err := eng.Retrieve(req)
			out[i] = walkOutcome{r, err != nil}
		}
		return out
	}
	pre := walk(cb)
	victim := -1
	for i, o := range pre[:len(hot)] {
		if !o.failed {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no hot request has a match to retire")
	}
	gone := pre[victim].r

	var calls atomic.Int64
	var swapped atomic.Bool // set once CommitNow has returned
	type answer struct {
		i         int
		afterSwap bool
		got       walkOutcome
	}
	answers := make([][]answer, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			// Every fourth call retrieves one of the caller's own cold
			// requests: the first half of them before the swap, the
			// second half after it.
			cold := len(hot) + c*coldPer // the caller's first cold request
			preCold, postCold := 0, coldPer/2
			for n, extra := c, 0; extra < tail; n++ {
				afterSwap := swapped.Load()
				i := n % len(hot)
				if n%4 == 0 {
					if afterSwap && postCold < coldPer {
						i, postCold = cold+postCold, postCold+1
					} else if !afterSwap && preCold < coldPer/2 {
						i, preCold = cold+preCold, preCold+1
					}
				}
				r, err := s.Retrieve(ctx, reqs[i])
				answers[c] = append(answers[c], answer{i, afterSwap, walkOutcome{r, err != nil}})
				calls.Add(1)
				if afterSwap {
					extra++
				}
			}
		}(c)
	}
	for calls.Load() < minCalls {
		runtime.Gosched()
	}
	err := s.Retire(gone.Type, gone.Impl, 0)
	if err == nil {
		_, err = s.CommitNow()
	}
	swapped.Store(true) // release the callers on failure too
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	post := walk(s.CaseBase())
	if post[victim].r.Type == gone.Type && post[victim].r.Impl == gone.Impl && !post[victim].failed {
		t.Fatal("the retired implementation survived the commit")
	}
	for c, as := range answers {
		for _, a := range as {
			okPost := reflect.DeepEqual(a.got, post[a.i])
			if a.afterSwap && !okPost {
				t.Fatalf("caller %d: request %d started after CommitNow answered %+v, want %+v",
					c, a.i, a.got, post[a.i])
			}
			if !okPost && !reflect.DeepEqual(a.got, pre[a.i]) {
				t.Fatalf("caller %d: request %d answered %+v, neither the pre-swap walk %+v nor the post-swap walk %+v",
					c, a.i, a.got, pre[a.i], post[a.i])
			}
		}
	}

	st := s.Stats()
	inline, _ := reg.CounterValue("qos_serve_inline_hits_total")
	walks, _ := reg.CounterValue("qos_serve_inline_walks_total")
	t.Logf("stats: %+v; inline hits %d, inline walks %d", st, inline, walks)
	if st.TokenHits == 0 || inline == 0 || walks == 0 {
		t.Errorf("token hits %d, inline hits %d, inline walks %d: the inline path went unexercised", st.TokenHits, inline, walks)
	}
	if st.Enqueued != st.BatchedJobs {
		t.Errorf("Enqueued %d != BatchedJobs %d", st.Enqueued, st.BatchedJobs)
	}
	if answered := st.DedupHits + st.TokenHits + st.Canceled + st.EngineRetrievals; st.BatchedJobs != answered {
		t.Errorf("BatchedJobs = %d, but dedup %d + token %d + canceled %d + walks %d = %d",
			st.BatchedJobs, st.DedupHits, st.TokenHits, st.Canceled, st.EngineRetrievals, answered)
	}
}

// TestConcurrentInlineMisses has several callers miss on one shard at
// once while the driver re-instruments the service and commits. A walk
// never waits for another, so every miss is answered on its caller's
// goroutine: the inline walk series counts every call, nothing is
// shed, every answer equals a fresh walk, and both conservation laws
// hold. Under -race it also checks that the callers share the epoch's
// engine safely while Instrument swaps its metrics and commits swap
// the epoch.
func TestConcurrentInlineMisses(t *testing.T) {
	const callers, perCaller = 4, 100
	cb, _, gen := genWorkload(t, 2*callers*perCaller, 0)
	// Distinct requests only, so that every call misses.
	seen := make(map[string]bool)
	var reqs []casebase.Request
	for _, r := range gen {
		if sig := retrieval.Signature(r); !seen[sig] {
			seen[sig] = true
			reqs = append(reqs, r)
		}
	}
	if len(reqs) < callers*perCaller {
		t.Fatalf("only %d distinct requests, want %d", len(reqs), callers*perCaller)
	}
	eng := retrieval.NewEngine(cb, retrieval.Options{})
	s := New(cb, fig1System(t, cb), Config{Shards: 1, Learning: learnConfig(64, 0)})
	defer s.Close()

	started, stop := make(chan struct{}), make(chan struct{})
	last := make(chan *obs.Registry, 1)
	go func() {
		var reg *obs.Registry
		for i := 0; ; i++ {
			reg = obs.NewRegistry()
			s.Instrument(reg)
			if _, err := s.CommitNow(); err != nil {
				t.Error(err)
			}
			if i == 0 {
				close(started)
			}
			select {
			case <-stop:
				last <- reg
				return
			default:
			}
		}
	}()
	<-started
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, req := range reqs[c*perCaller:][:perCaller] {
				got, err := s.Retrieve(context.Background(), req)
				want, wantErr := eng.Retrieve(req)
				if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
					t.Errorf("caller %d: answered %+v (err %v), fresh walk %+v (err %v)", c, got, err, want, wantErr)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	reg := <-last

	st := s.Stats()
	walks, _ := reg.CounterValue("qos_serve_inline_walks_total")
	t.Logf("stats: %+v; inline walks %d over %d commits", st, walks, s.EpochStats().Commits)
	if walks != callers*perCaller || st.Shed != 0 {
		t.Errorf("inline walks %d, shed %d; want every one of %d misses walked inline and none shed",
			walks, st.Shed, callers*perCaller)
	}
	if st.Enqueued != st.BatchedJobs {
		t.Errorf("Enqueued %d != BatchedJobs %d", st.Enqueued, st.BatchedJobs)
	}
	if answered := st.DedupHits + st.TokenHits + st.Canceled + st.EngineRetrievals; st.BatchedJobs != answered {
		t.Errorf("BatchedJobs = %d, but dedup %d + token %d + canceled %d + walks %d = %d",
			st.BatchedJobs, st.DedupHits, st.TokenHits, st.Canceled, st.EngineRetrievals, answered)
	}
}

// walkOutcome is a Retrieve answer reduced to what a fresh walk must
// match: the result, and whether the walk failed.
type walkOutcome struct {
	r      retrieval.Result
	failed bool
}

// TestSwapMatchesFromScratchRebuild is the equivalence guard for
// incremental commits: after every commit of a seeded run of
// observations, retains and retires, the committed tree must equal a
// from-scratch casebase.Builder rebuild of its content, and batched
// retrieval through the long-lived service must be bit-identical to a
// sequential engine walk over that rebuild — the swap pipeline leaves
// no residue a from-scratch rebuild wouldn't have.
func TestSwapMatchesFromScratchRebuild(t *testing.T) {
	cb, _, reqs := genWorkload(t, 120, 0.4)
	s := New(cb, fig1System(t, cb), Config{Shards: 4, MaxBatch: 16, Learning: learnConfig(8, 0)})
	defer s.Close()

	ctx := context.Background()
	check := func(step int) {
		t.Helper()
		cur := s.CaseBase()
		rb := casebase.NewBuilder(cur.Registry())
		for _, ft := range cur.Types() {
			rb.AddType(ft.ID, ft.Name)
			for _, im := range ft.Impls {
				rb.AddImpl(ft.ID, im)
			}
		}
		fresh, err := rb.Build()
		if err != nil {
			t.Fatalf("step %d epoch %d: from-scratch rebuild: %v", step, s.Epoch(), err)
		}
		if !reflect.DeepEqual(cur.Types(), fresh.Types()) {
			t.Fatalf("step %d epoch %d: committed tree differs from its from-scratch rebuild", step, s.Epoch())
		}
		eng := retrieval.NewEngine(fresh, retrieval.Options{})
		out, err := s.RetrieveBatch(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		for k, o := range out {
			want, wantErr := eng.Retrieve(reqs[k])
			if (o.Err == nil) != (wantErr == nil) {
				t.Fatalf("step %d epoch %d req %d: err = %v, fresh walk err = %v", step, s.Epoch(), k, o.Err, wantErr)
			}
			if !reflect.DeepEqual(o.Result, want) {
				t.Fatalf("step %d epoch %d req %d: served %+v != fresh walk %+v", step, s.Epoch(), k, o.Result, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(7))
	epoch, retained, retired := s.Epoch(), 0, 0
	check(-1)
	for step := 0; step < 400; step++ {
		types := s.CaseBase().Types()
		ft := types[rng.Intn(len(types))]
		im := ft.Impls[rng.Intn(len(ft.Impls))]
		switch k := rng.Intn(40); {
		case k < 35:
			p := im.Attrs[rng.Intn(len(im.Attrs))]
			err := s.Observe(learn.Observation{Type: ft.ID, Impl: im.ID,
				Measured: []attr.Pair{{ID: p.ID, Value: nudged(t, cb, p.ID, p.Value)}}})
			if err != nil {
				t.Fatal(err)
			}
		case k < 38:
			if _, err := s.Retain(ft.ID, casebase.Implementation{
				Name: fmt.Sprintf("equiv-%d", step), Target: im.Target,
				Attrs: append([]attr.Pair(nil), im.Attrs...), Foot: im.Foot,
			}, 0); err != nil {
				t.Fatal(err)
			}
			retained++
		default:
			if len(ft.Impls) < 3 {
				continue
			}
			if err := s.Retire(ft.ID, im.ID, 0); err != nil {
				t.Fatal(err)
			}
			retired++
		}
		if e := s.Epoch(); e != epoch {
			check(step)
			epoch = e
		}
	}
	if st := s.EpochStats(); st.Folds < 10 || retained < 10 || retired < 10 {
		t.Fatalf("schedule too thin: %d folds, %d retained, %d retired", st.Folds, retained, retired)
	}
}

// runLearnSchedule drives one fixed seeded schedule of retrievals and
// mutations sequentially against a service with the given shard count
// and returns the epoch journal, replay hash and retrieval outcomes.
func runLearnSchedule(t *testing.T, shards int) (journal []string, hash string, results []string) {
	t.Helper()
	cb, _, reqs := genWorkload(t, 120, 0.3)
	s := New(cb, fig1System(t, cb), Config{
		Shards: shards, MaxBatch: 8,
		Learning: LearnConfig{Enabled: true, Alpha: 0.5, FoldThreshold: 4, MaxAge: 5_000},
	})
	defer s.Close()

	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))
	types := cb.Types()
	now := device.Micros(0)
	for step := 0; step < 200; step++ {
		now += 25
		s.Tick(now)
		switch k := rng.Intn(10); {
		case k < 5:
			lo := rng.Intn(len(reqs) - 4)
			out, err := s.RetrieveBatch(ctx, reqs[lo:lo+4])
			if err != nil {
				t.Fatalf("shards=%d step %d: %v", shards, step, err)
			}
			for _, o := range out {
				if o.Err != nil {
					results = append(results, fmt.Sprintf("err:%v", o.Err))
					continue
				}
				results = append(results, fmt.Sprintf("%d:%d:%.9f", o.Result.Type, o.Result.Impl, o.Result.Similarity))
			}
		case k < 9:
			ft := types[rng.Intn(len(types))]
			im := ft.Impls[rng.Intn(len(ft.Impls))]
			p := im.Attrs[rng.Intn(len(im.Attrs))]
			// May fail deterministically once the schedule retired the
			// impl — the error sequence is part of the replayed behavior.
			_ = s.Observe(learn.Observation{Type: ft.ID, Impl: im.ID,
				Measured: []attr.Pair{{ID: p.ID, Value: p.Value + attr.Value(rng.Intn(3))}}})
		case rng.Intn(2) == 0:
			ft := types[rng.Intn(len(types))]
			src := ft.Impls[rng.Intn(len(ft.Impls))]
			_, _ = s.Retain(ft.ID, casebase.Implementation{
				Name: fmt.Sprintf("sched-%d", step), Target: src.Target,
				Attrs: append([]attr.Pair(nil), src.Attrs...), Foot: src.Foot,
			}, 0)
		default:
			ft := types[rng.Intn(len(types))]
			// Never the first variant, so no type ever empties out.
			_ = s.Retire(ft.ID, ft.Impls[1+rng.Intn(len(ft.Impls)-1)].ID, 0)
		}
	}
	if st := s.EpochStats(); st.Commits == 0 || st.Folds == 0 {
		t.Fatalf("shards=%d: schedule exercised no fold commits: %+v", shards, st)
	}
	return s.Journal(), s.ReplayHash(), results
}

// TestReplayShardInvariant pins the replay contract of DESIGN.md §14: a
// deterministic lockstep schedule produces the identical epoch journal,
// replay hash AND retrieval outcomes at any shard count — fold points
// depend on the global counters, never on how keys stripe.
func TestReplayShardInvariant(t *testing.T) {
	j1, h1, r1 := runLearnSchedule(t, 1)
	for _, shards := range []int{4, 8} {
		j, h, r := runLearnSchedule(t, shards)
		if h != h1 {
			t.Errorf("shards=%d: replay hash %s != %s at shards=1", shards, h, h1)
		}
		if !reflect.DeepEqual(j, j1) {
			t.Errorf("shards=%d: journal diverged:\n got %q\nwant %q", shards, j, j1)
		}
		if !reflect.DeepEqual(r, r1) {
			t.Errorf("shards=%d: retrieval outcomes diverged (%d vs %d lines)", shards, len(r), len(r1))
		}
	}
}

// TestLearnChurnRaceStress hammers a learning service from concurrent
// readers and writers — the test is mainly for -race; it also checks
// that commits land and no call fails outside the tolerated classes.
func TestLearnChurnRaceStress(t *testing.T) {
	cb, _, reqs := genWorkload(t, 64, 0.3)
	s := New(cb, fig1System(t, cb), Config{
		Shards: 4, MaxBatch: 8, MaxQueue: 512,
		Learning: LearnConfig{Enabled: true, Alpha: 0.5, FoldThreshold: 16},
	})
	defer s.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				lo := (c*5 + i) % (len(reqs) - 4)
				if _, err := s.RetrieveBatch(ctx, reqs[lo:lo+4]); err != nil {
					var ov *ErrOverload
					if !errors.As(err, &ov) {
						errc <- fmt.Errorf("reader %d: %w", c, err)
					}
					return
				}
			}
		}(c)
	}
	types := cb.Types()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []casebase.ImplID
			ft := types[w%len(types)]
			for i := 0; i < 40; i++ {
				switch {
				case i%10 == 9 && len(mine) > 0:
					// Retire only variants this writer retained: seed
					// variants stay, so observations stay valid.
					id := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := s.Retire(ft.ID, id, 0); err != nil {
						errc <- fmt.Errorf("writer %d retire: %w", w, err)
						return
					}
				case i%10 == 4 && len(mine) < 4:
					src := ft.Impls[0]
					id, err := s.Retain(ft.ID, casebase.Implementation{
						Name: fmt.Sprintf("churn-%d-%d", w, i), Target: src.Target,
						Attrs: append([]attr.Pair(nil), src.Attrs...), Foot: src.Foot,
					}, 0)
					if err != nil {
						errc <- fmt.Errorf("writer %d retain: %w", w, err)
						return
					}
					mine = append(mine, id)
				default:
					im := ft.Impls[rng.Intn(len(ft.Impls))]
					p := im.Attrs[rng.Intn(len(im.Attrs))]
					err := s.Observe(learn.Observation{Type: ft.ID, Impl: im.ID,
						Measured: []attr.Pair{{ID: p.ID, Value: p.Value + attr.Value(rng.Intn(3))}}})
					if err != nil {
						errc <- fmt.Errorf("writer %d observe: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	// Driver: clock ticks, allocations (tolerating typed outcomes), stats.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := s.Advance(s.System().Now() + 100); err != nil {
				errc <- err
				return
			}
			_, err := s.Allocate(ctx, "driver", reqs[i], 5)
			if err != nil && !isNoFeasible(err) {
				var ov *ErrOverload
				var stale *ErrStaleEpoch
				var nm *retrieval.ErrNoMatch
				if !errors.As(err, &ov) && !errors.As(err, &stale) && !errors.As(err, &nm) {
					errc <- err
					return
				}
			}
			_ = s.Stats()
			_ = s.EpochStats()
			_ = s.ReplayHash()
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if st := s.EpochStats(); st.Commits == 0 || st.Retained == 0 {
		t.Errorf("churn produced no commits: %+v", st)
	}
}

func TestLearnMetricsExported(t *testing.T) {
	cb, _, _ := genWorkload(t, 1, 0)
	s := New(cb, fig1System(t, cb), Config{Shards: 2, Learning: learnConfig(2, 0)})
	defer s.Close()
	reg := obs.NewRegistry()
	s.Instrument(reg)

	ft := cb.Types()[0]
	im := ft.Impls[0]
	for i := 0; i < 2; i++ {
		p := im.Attrs[i]
		err := s.Observe(learn.Observation{Type: ft.ID, Impl: im.ID,
			Measured: []attr.Pair{{ID: p.ID, Value: nudged(t, cb, p.ID, p.Value)}}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.CommitNow(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"qos_serve_epoch",
		`qos_serve_commits_total{reason="fold"}`,
		`qos_serve_commits_total{reason="manual"}`,
		"qos_serve_observations_total",
		"qos_serve_folded_attrs_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if want := fmt.Sprintf("qos_serve_epoch %d", s.Epoch()); !strings.Contains(out, want) {
		t.Errorf("exposition missing %q", want)
	}
}

// TestAllocateNeverAheadOfManager commits in a tight loop against
// concurrent Allocate calls. The snapshot and the manager move in one
// allocMu section, so candidates can lag the manager (a stale retry)
// but never lead it: no *ErrStaleEpoch may report At > Committed.
func TestAllocateNeverAheadOfManager(t *testing.T) {
	cb, _, reqs := genWorkload(t, 64, 0.3)
	s := New(cb, fig1System(t, cb), Config{
		Shards: 4, MaxQueue: 512, Learning: learnConfig(64, 0),
	})
	defer s.Close()

	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d, err := s.Allocate(ctx, fmt.Sprintf("app%d", c), reqs[i%len(reqs)], 5)
				var stale *ErrStaleEpoch
				switch {
				case err == nil:
					if err := s.Release(d.Task.ID); err != nil {
						errc <- fmt.Errorf("client %d release: %w", c, err)
						return
					}
				case errors.As(err, &stale) && stale.At > stale.Committed:
					errc <- fmt.Errorf("client %d: candidates ahead of the manager: %w", c, err)
					return
				}
			}
		}(c)
	}
	// Commit at least 400 times, and on until an allocation has landed
	// in between: a commit never waits for a shard, so the loop can
	// outrun the clients' first calls.
	for i := 0; i < 400 || s.counts.allocated.Load() == 0 && i < 100000; i++ {
		if _, err := s.CommitNow(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if st := s.Stats(); st.Allocated == 0 {
		t.Errorf("no allocation landed during the commit loop: %+v", st)
	}
}
