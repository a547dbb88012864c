package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"qosalloc/internal/admit"
	"qosalloc/internal/alloc"
	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/fault"
	"qosalloc/internal/obs"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/rtsys"
)

// TestServeUnderFaultStorm composes the full robustness stack the qosd
// daemon runs — serve.Service traffic, a scripted fault storm feeding
// admit breakers through the injector's observer hook — under -race
// with concurrent callers, and asserts the two invariants the daemon
// depends on: every submitted request reaches exactly one terminal
// outcome (nothing is silently dropped), and every tripped breaker
// recovers to Closed once the storm passes and probes succeed.
func TestServeUnderFaultStorm(t *testing.T) {
	const (
		shards  = 4
		workers = 8
		horizon = device.Micros(300_000)
	)
	cb, _, reqs := genWorkload(t, 480, 0.3)
	reg := obs.NewRegistry()
	s := New(cb, fig1System(t, cb), Config{
		Shards: shards, MaxBatch: 8, MaxQueue: 64,
		Engine:  retrieval.Options{Threshold: 0.3},
		Manager: alloc.Options{AllowPreemption: true},
	})
	defer s.Close()
	s.Instrument(reg)

	plan, err := fault.Storm(rand.New(rand.NewSource(99)), fault.StormSpec{
		Horizon:   horizon,
		SlotFails: 6, DeviceFails: 3, ConfigErrors: 3, SEUs: 4,
		Targets: []fault.StormTarget{
			{Device: "fpga0", Slots: 2}, {Device: "dsp0"}, {Device: "gpp0"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(s.System(), plan)

	gate := admit.NewGate(admit.GateConfig{
		Shards: shards,
		// Tight breaker so the storm actually trips it, short backoff so
		// recovery happens inside the test horizon.
		Breaker: admit.BreakerConfig{Window: 8, MinSamples: 2, TripRatio: 0.5, Backoff: 20_000},
		// Roomy buckets: this test is about breakers, not rate limits.
		Limiter: admit.LimiterConfig{RatePerSec: 1_000_000, Burst: 1_000},
	}, reg)

	// Mirror the daemon's fault→breaker plumbing: affected tasks map to
	// their type's shard; victimless events broadcast to every shard.
	inj.Subscribe(func(a fault.Applied) {
		idxs := make(map[int]bool)
		for _, id := range a.Affected {
			if task, ok := s.System().Task(id); ok {
				idxs[gate.Shard(task.Type)] = true
			}
		}
		if len(idxs) == 0 {
			for i := 0; i < shards; i++ {
				idxs[i] = true
			}
		}
		sorted := make([]int, 0, len(idxs))
		for i := range idxs {
			sorted = append(sorted, i)
		}
		sort.Ints(sorted)
		for _, i := range sorted {
			gate.RecordFault(i, a.Event.At)
		}
	})

	// A single pacer owns the sim clock: it advances the injector and
	// sweeps stranded tasks while workers read the clock for admission.
	var clock atomic.Uint64
	clock.Store(1)
	pace := func(to device.Micros) {
		clock.Store(uint64(to))
		s.Exclusive(func() {
			if _, err := inj.AdvanceTo(to); err != nil {
				t.Errorf("AdvanceTo(%d): %v", to, err)
			}
			s.Manager().RecoverFromFaults()
		})
	}

	type tally struct{ ok, admitRefused, semantic, device, other int64 }
	var got tally
	var allocated sync.Map // rtsys.TaskID → struct{}

	var wg sync.WaitGroup
	per := len(reqs) / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, mine []casebase.Request) {
			defer wg.Done()
			client := string(rune('a' + w))
			for i, req := range mine {
				now := device.Micros(clock.Load())
				shard := gate.Shard(req.Type)
				if err := gate.Admit(client, shard, now); err != nil {
					atomic.AddInt64(&got.admitRefused, 1)
					continue
				}
				var err error
				if i%3 == 0 {
					var dec *alloc.Decision
					dec, err = s.Allocate(context.Background(), client, req, 3)
					if err == nil {
						allocated.Store(dec.Task.ID, struct{}{})
					}
				} else {
					_, err = s.Retrieve(context.Background(), req)
				}
				gate.Record(shard, now, stormFailure(err))
				switch {
				case err == nil:
					atomic.AddInt64(&got.ok, 1)
				case isSemantic(err):
					atomic.AddInt64(&got.semantic, 1)
				case errors.Is(err, device.ErrDeviceFailed):
					atomic.AddInt64(&got.device, 1)
				default:
					atomic.AddInt64(&got.other, 1)
				}
			}
		}(w, reqs[w*per:(w+1)*per])
	}

	// Drive the storm across its horizon while the workers hammer the
	// service, then join.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for at := device.Micros(10_000); at <= horizon+20_000; at += 10_000 {
			pace(at)
		}
	}()
	wg.Wait()
	<-done

	issued := int64(per * workers)
	sum := got.ok + got.admitRefused + got.semantic + got.device + got.other
	if sum != issued {
		t.Fatalf("outcome accounting leaked requests: ok=%d refused=%d semantic=%d device=%d other=%d sum=%d, issued %d",
			got.ok, got.admitRefused, got.semantic, got.device, got.other, sum, issued)
	}
	if got.ok == 0 {
		t.Fatal("no request succeeded under the storm; traffic never reached the service")
	}
	if inj.Pending() != 0 {
		t.Fatalf("%d storm events never applied", inj.Pending())
	}

	// Every allocation must still be individually accounted for: release
	// succeeds, or the storm already took the task — in which case it
	// must not still claim to be running. A running-but-unreleasable
	// task would be a silent drop.
	allocated.Range(func(k, _ any) bool {
		id := k.(rtsys.TaskID)
		if err := s.Release(id); err != nil {
			if task, ok := s.System().Task(id); ok && task.State == rtsys.Running {
				t.Errorf("task %d running but release failed: %v", id, err)
			}
		}
		return true
	})

	// Force at least one trip deterministically (the storm usually trips
	// breakers on its own, but its victims depend on placement), then
	// prove the Open → HalfOpen → Closed recovery path.
	now := device.Micros(clock.Load())
	for i := 0; i < 4; i++ {
		gate.RecordFault(0, now)
	}
	if gate.Trips() == 0 {
		t.Fatal("no breaker trip recorded after a solid run of faults")
	}
	for shard := 0; shard < shards; shard++ {
		recovered := false
		for attempt := 0; attempt < 200 && !recovered; attempt++ {
			now += 25_000
			if err := gate.Admit("probe", shard, now); err != nil {
				continue
			}
			gate.Record(shard, now, false)
			state, ok := reg.Snapshot().Gauges[fmt.Sprintf("qos_admit_breaker_state{shard=%q}", fmt.Sprint(shard))]
			if !ok {
				t.Fatalf("no breaker state gauge for shard %d", shard)
			}
			recovered = state == int64(admit.Closed)
		}
		if !recovered {
			t.Fatalf("shard %d breaker never recovered to Closed after the storm", shard)
		}
	}
}

// stormFailure mirrors cmd/qosd's breakerFailure for the error classes
// this test can see: semantic misses and shedding are healthy, device
// failures and anything unclassified are not.
func stormFailure(err error) bool {
	if err == nil || isSemantic(err) {
		return false
	}
	var ov *ErrOverload
	if errors.As(err, &ov) || errors.Is(err, ErrClosed) {
		return false
	}
	return true
}

func isSemantic(err error) bool {
	var nm *retrieval.ErrNoMatch
	var nf *alloc.ErrNoFeasible
	return errors.As(err, &nm) || errors.As(err, &nf)
}
