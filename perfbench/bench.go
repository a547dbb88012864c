package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"qosalloc"
)

// config is one invocation's arguments.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	qosd     string // path of the qosd binary (qosd_wire only)
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int64
	problems          []string // output-check failures; empty means correct
	e2e               values   // end-to-end metrics of the untraced phase
	layers            values   // per-layer metrics; nil unless traced
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// clockBase anchors nanotime; time.Since reads the monotonic clock.
var clockBase = time.Now()

func nanotime() int64 { return int64(time.Since(clockBase)) }

// client is one closed-loop caller: it issues its next op only after
// the previous one returned, and keeps its own counters, so clients share
// only the schedule's op counter.
type client struct {
	idx        int
	lat        hist            // wall latency of every public call
	slices     [numSlices]hist // the same, per tenth of the schedule
	ops        int64
	failed     int64  // calls that returned an error other than a domain outcome
	digest     uint64 // sum of per-op outcome words (see outcomeWord)
	mismatches int64  // traced pass: served answer != replayed walk
	firstErr   error  // the first failure, for the log
	tr         *tracer

	next  *atomic.Uint64 // the schedule's next unclaimed op, shared by all clients
	limit uint64         // ops in the schedule
}

// take claims the schedule's next op for this client; false once every
// op is claimed. Clients pull ops as they come free, so none idles while
// another still has a backlog.
func (c *client) take() (uint64, bool) {
	i := c.next.Add(1) - 1
	return i, i < c.limit
}

// numSlices is how many equal slices of the schedule the end-to-end
// latency percentiles are taken over (see endToEndValues).
const numSlices = 10

// latency records the wall latency of a call made for op.
func (c *client) latency(op uint64, dur int64) {
	c.lat.record(dur)
	c.slices[min(op*numSlices/c.limit, numSlices-1)].record(dur)
}

// count records one finished call's outcome.
func (c *client) count(err error) {
	c.ops++
	if err != nil && !isDomain(err) {
		if c.failed == 0 {
			c.firstErr = err
		}
		c.failed++
	}
}

// numClients is the closed-loop concurrency: one client per CPU.
func numClients() int { return runtime.NumCPU() }

// pass is one run of the schedule: its clients, their merged totals,
// and the wall and process CPU time from the common start to the last
// client's finish.
type pass struct {
	clients                 []*client
	lat                     hist
	slices                  [numSlices]hist
	ops, failed, mismatches int64
	digest                  uint64
	wall, cpu               time.Duration
	mem0, mem1              runtime.MemStats
}

// runPass starts n clients together on a schedule of ops ops and runs
// body on each.
func runPass(n int, ops uint64, trace bool, body func(c *client)) *pass {
	next := new(atomic.Uint64)
	p := &pass{clients: make([]*client, n)}
	for i := range p.clients {
		p.clients[i] = &client{idx: i, next: next, limit: ops}
		if trace {
			p.clients[i].tr = newTracer()
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&p.mem0)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, c := range p.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			<-start
			body(c)
		}(c)
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	close(start)
	wg.Wait()
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&p.mem1)
	for _, c := range p.clients {
		if c.firstErr != nil {
			fmt.Fprintf(os.Stderr, "client %d: first of %d failed ops: %v\n", c.idx, c.failed, c.firstErr)
		}
		p.lat.merge(&c.lat)
		for j := range p.slices {
			p.slices[j].merge(&c.slices[j])
		}
		p.ops += c.ops
		p.failed += c.failed
		p.mismatches += c.mismatches
		p.digest += c.digest
	}
	return p
}

// sliceQuantile is the median over the schedule's slices of each
// slice's q-quantile. On a shared host, stalls of a few milliseconds
// come in bursts; taken over the whole run they decide scan_large's p99
// in some runs and not others, while a tail that persists through the
// run moves every slice and so the median.
func (p *pass) sliceQuantile(q float64) float64 {
	qs := make([]float64, 0, numSlices)
	for j := range p.slices {
		if p.slices[j].n > 0 {
			qs = append(qs, p.slices[j].quantile(q))
		}
	}
	return median(qs)
}

// endToEndValues computes the six end-to-end metrics of a pass. cpu is
// the CPU time of the process running the service during the pass.
func endToEndValues(p *pass, cpu time.Duration, rssMB, setupS float64) values {
	return values{
		"throughput_rps": ratio(float64(p.ops), p.wall.Seconds()),
		"latency_p50_us": p.sliceQuantile(0.50) / 1e3,
		"latency_p99_us": p.sliceQuantile(0.99) / 1e3,
		"cpu_us_per_op":  ratio(float64(cpu.Nanoseconds())/1e3, float64(p.ops)),
		"rss_peak_mb":    rssMB,
		"setup_s":        setupS,
	}
}

// goValues reports the Go runtime's allocation and GC work per call.
func goValues(v values, p *pass) {
	v["go.alloc_bytes_per_op"] = ratio(float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc), float64(p.ops))
	v["go.gc_per_kop"] = 1e3 * ratio(float64(p.mem1.NumGC-p.mem0.NumGC), float64(p.ops))
}

// cpuTime returns this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the peak resident set, of process pid
// ("self" for this one) in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM of %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// --- In-process set-up ---------------------------------------------------

// Set-up is timed repeatedly and reported as the median, because a
// single few-millisecond sample is not steady; and since the host's CPU
// speed wanders on a sub-second scale, samples continue until they span
// at least setupMinSpan of wall time.
const (
	setupMinRuns = 15
	setupMaxRuns = 1000
	setupMinSpan = time.Second
)

// moreSetups reports whether to time another set-up after n samples
// taken since start.
func moreSetups(n, least int, start time.Time) bool {
	return n < least || (n < setupMaxRuns && time.Since(start) < setupMinSpan)
}

// setupTimes are the medians of the timed set-ups.
type setupTimes struct {
	total, load, build float64 // seconds
	heapMB             float64 // live heap after the last set-up and a GC
}

// platform builds the repository and run-time system every in-process
// workload allocates on: one three-slot FPGA, a DSP and a GPP, the
// device set qosd serves.
func platform(cb *qosalloc.CaseBase) (*qosalloc.Runtime, error) {
	repo := qosalloc.NewRepository(20)
	if err := repo.PopulateFromCaseBase(cb); err != nil {
		return nil, err
	}
	slot := qosalloc.FPGASlot{Slices: 1500, BRAMs: 8, Multipliers: 16}
	return qosalloc.NewRuntime(repo,
		qosalloc.NewFPGADevice("fpga0", []qosalloc.FPGASlot{slot, slot, slot}, 66),
		qosalloc.NewProcessorDevice("dsp0", qosalloc.TargetDSP, 2000, 1<<20),
		qosalloc.NewProcessorDevice("gpp0", qosalloc.TargetGPP, 2000, 1<<21),
	), nil
}

// coldStart is one set-up: from the serialized case-base document to
// the first answered request.
func coldStart(doc []byte, probe qosalloc.Request, opts []qosalloc.Option) (*qosalloc.Service, [3]time.Duration, error) {
	var d [3]time.Duration // total, load, build
	t0 := time.Now()
	cb, err := qosalloc.LoadCaseBase(bytes.NewReader(doc))
	if err != nil {
		return nil, d, err
	}
	t1 := time.Now()
	rt, err := platform(cb)
	if err != nil {
		return nil, d, err
	}
	t2 := time.Now()
	svc := qosalloc.NewService(cb, rt, opts...)
	if _, err := svc.Retrieve(context.Background(), probe); err != nil {
		svc.Close()
		return nil, d, fmt.Errorf("set-up probe: %w", err)
	}
	t3 := time.Now()
	d[0], d[1], d[2] = t3.Sub(t0), t1.Sub(t0), t3.Sub(t2)
	return svc, d, nil
}

// timedSetups times cold starts, each from a collected heap, and
// returns the last service (the one the measured phase runs on) with
// the medians.
func timedSetups(doc []byte, probe qosalloc.Request, opts []qosalloc.Option) (*qosalloc.Service, setupTimes, error) {
	var st setupTimes
	var total, load, build []float64
	var svc *qosalloc.Service
	for start := time.Now(); moreSetups(len(total), setupMinRuns, start); {
		if svc != nil {
			svc.Close()
		}
		runtime.GC()
		s, d, err := coldStart(doc, probe, opts)
		if err != nil {
			return nil, st, err
		}
		svc = s
		total = append(total, d[0].Seconds())
		load = append(load, d[1].Seconds())
		build = append(build, d[2].Seconds())
	}
	st.total, st.load, st.build = median(total), median(load), median(build)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	return svc, st, nil
}

// setupValues reports the set-up layers.
func setupValues(v values, st setupTimes) {
	v["casebase.load_ms"] = st.load * 1e3
	v["serve.build_ms"] = st.build * 1e3
	v["setup.heap_mb"] = st.heapMB
}

// encodeCaseBase serializes cb the way set-up reads it back.
func encodeCaseBase(cb *qosalloc.CaseBase) ([]byte, error) {
	var buf bytes.Buffer
	if err := qosalloc.SaveCaseBase(&buf, cb); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// zeroLayers returns a per-layer table with every metric at 0, for a
// workload to fill in the layers its ops reach.
func zeroLayers() values {
	v := make(values, len(perLayer))
	for _, d := range perLayer {
		v[d.name] = 0
	}
	return v
}
