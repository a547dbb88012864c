package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"qosalloc"
	"qosalloc/internal/wire"
)

// startDaemon boots a daemon on a loopback port and returns its base
// URL, the signal channel that triggers the drain, and the channel
// run's error lands on.
func startDaemon(t *testing.T, opt options) (*daemon, string, chan os.Signal, chan error) {
	t.Helper()
	d, err := newDaemon(opt)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- d.run(ln, sig, io.Discard) }()
	return d, "http://" + ln.Addr().String(), sig, done
}

// testRequests generates a request stream against the same case-base
// spec the daemon serves — the qosload client contract.
func testRequests(t *testing.T, opt options, n int) []wire.AllocRequest {
	t.Helper()
	cb, reg, err := qosalloc.GenCaseBase(qosalloc.CaseBaseSpec{
		Types: opt.types, ImplsPerType: opt.implsPerType,
		AttrsPerImpl: opt.attrsPerImpl, AttrUniverse: opt.attrUniverse,
		Seed: opt.cbSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := qosalloc.GenRequests(cb, reg, qosalloc.RequestStreamSpec{
		N: n, ConstraintsPer: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]wire.AllocRequest, n)
	for i, r := range reqs {
		out[i] = wire.AllocRequest{Client: "t", Type: uint16(r.Type)}
		for _, c := range r.Constraints {
			out[i].Constraints = append(out[i].Constraints, wire.ConstraintJSON{
				ID: uint16(c.ID), Value: uint16(c.Value), Weight: c.Weight,
			})
		}
	}
	return out
}

// post sends one wire request with the lockstep clock header and
// decodes the response body into out (when out is non-nil).
func post(t *testing.T, url string, body any, now uint64, out any) (*http.Response, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(nowHeader, fmt.Sprint(now))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v (body %s)", url, err, data)
		}
	}
	return resp, string(data)
}

func lockstepOptions() options {
	opt := defaultOptions()
	opt.lockstep = true
	opt.drainTimeout = 5 * time.Second
	return opt
}

func TestDaemonServesRetrieveAllocateRelease(t *testing.T) {
	opt := lockstepOptions()
	_, base, sig, done := startDaemon(t, opt)
	defer func() { sig <- syscall.SIGTERM; <-done }()
	reqs := testRequests(t, opt, 8)

	now := uint64(1000)
	var rr wire.RetrieveResponse
	resp, body := post(t, base+"/v1/retrieve", reqs[0], now, &rr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retrieve: %d %s", resp.StatusCode, body)
	}
	if rr.Type != reqs[0].Type || rr.Similarity <= 0 || rr.Similarity > 1 {
		t.Fatalf("retrieve response %+v", rr)
	}

	alloc := reqs[1]
	alloc.App = "app0"
	alloc.Priority = 5
	var ar wire.AllocResponse
	resp, body = post(t, base+"/v1/allocate", alloc, now+1000, &ar)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("allocate: %d %s", resp.StatusCode, body)
	}
	if ar.Device == "" || ar.Target == "" {
		t.Fatalf("allocate response %+v", ar)
	}

	resp, body = post(t, base+"/v1/release", wire.ReleaseRequest{Client: "t", Task: ar.Task}, now+2000, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release: %d %s", resp.StatusCode, body)
	}
	// Releasing again is an unknown task now, as is a task never issued.
	resp, body = post(t, base+"/v1/release", wire.ReleaseRequest{Client: "t", Task: ar.Task}, now+3000, nil)
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(body, wire.CodeUnknownTask) {
		t.Fatalf("double release: %d %s", resp.StatusCode, body)
	}
	resp, body = post(t, base+"/v1/release", wire.ReleaseRequest{Client: "t", Task: ar.Task + 1000}, now+3000, nil)
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(body, wire.CodeUnknownTask) {
		t.Fatalf("release of a never-issued task: %d %s", resp.StatusCode, body)
	}

	// Malformed body → 400 bad_request.
	resp, body = post(t, base+"/v1/retrieve", map[string]any{"bogus": 1}, now+4000, nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, wire.CodeBadRequest) {
		t.Fatalf("bad request: %d %s", resp.StatusCode, body)
	}

	// Lockstep mode without the clock header → 400.
	raw, _ := json.Marshal(reqs[2])
	plain, err := http.Post(base+"/v1/retrieve", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	plain.Body.Close()
	if plain.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing %s header: %d", nowHeader, plain.StatusCode)
	}

	for _, path := range []string{"/healthz", "/metrics", "/statz"} {
		r, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s: %d", path, r.StatusCode)
		}
	}
}

func TestDaemonRateLimits(t *testing.T) {
	opt := lockstepOptions()
	opt.ratePerSec = 10 // one token per 100 ms of sim time
	opt.burst = 2
	_, base, sig, done := startDaemon(t, opt)
	defer func() { sig <- syscall.SIGTERM; <-done }()
	reqs := testRequests(t, opt, 4)

	// Burst of 2 admitted at t=0ish, third shed with Retry-After.
	for i := 0; i < 2; i++ {
		resp, body := post(t, base+"/v1/retrieve", reqs[i], uint64(i+1), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, body := post(t, base+"/v1/retrieve", reqs[2], 3, nil)
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(body, wire.CodeRateLimited) {
		t.Fatalf("want 429 rate_limited, got %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	// Honoring the refill interval admits again.
	resp, body = post(t, base+"/v1/retrieve", reqs[3], 200_000, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after refill: %d %s", resp.StatusCode, body)
	}
}

func TestDaemonFaultTripsAndRecoversBreaker(t *testing.T) {
	opt := lockstepOptions()
	opt.faults = "1000:devfail:fpga0"
	opt.brkMinSamples = 1
	opt.brkRatio = 0.5
	opt.brkBackoffUS = 50_000
	_, base, sig, done := startDaemon(t, opt)
	defer func() { sig <- syscall.SIGTERM; <-done }()
	reqs := testRequests(t, opt, 2)

	// Advancing past the scripted devfail feeds every breaker (the
	// fault had no victims, so the whole platform shrank); with
	// MinSamples 1 they all trip, so the request itself is rejected.
	resp, body := post(t, base+"/v1/retrieve", reqs[0], 2000, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, wire.CodeBreakerOpen) {
		t.Fatalf("want 503 breaker_open after fault storm, got %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("breaker rejection without a Retry-After header")
	}

	// After the backoff the breaker half-opens: the probe goes through
	// (retrieval doesn't need fpga0), succeeds, and re-closes it.
	resp, body = post(t, base+"/v1/retrieve", reqs[0], 2000+60_000, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("half-open probe: %d %s", resp.StatusCode, body)
	}
	resp, body = post(t, base+"/v1/retrieve", reqs[1], 2000+60_001, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after recovery: %d %s", resp.StatusCode, body)
	}

	// The trips are visible on /statz.
	r, err := http.Get(base + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var statz struct {
		BreakerTrips int64 `json:"breaker_trips"`
	}
	if err := json.NewDecoder(r.Body).Decode(&statz); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if statz.BreakerTrips == 0 {
		t.Fatal("statz reports zero breaker trips after a fault storm")
	}
}

// TestDaemonSIGTERMDrain pins the shutdown acceptance contract:
// in-flight requests complete, new requests get 503 with Retry-After,
// and run returns nil (exit 0) within the drain deadline.
func TestDaemonSIGTERMDrain(t *testing.T) {
	opt := lockstepOptions()
	d, err := newDaemon(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Wedge the first in-flight request after admission, before the
	// service call, so it is provably mid-flight when SIGTERM lands.
	// (The drain-time request below never reaches the hook — it is
	// refused at the fence — so the one channel receive is enough.)
	gate := make(chan struct{})
	entered := make(chan struct{})
	d.preServe = func() { close(entered); <-gate }

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- d.run(ln, sig, io.Discard) }()
	base := "http://" + ln.Addr().String()
	reqs := testRequests(t, opt, 2)

	inflight := make(chan int, 1)
	go func() {
		resp, _ := post(t, base+"/v1/retrieve", reqs[0], 1000, nil)
		inflight <- resp.StatusCode
	}()
	<-entered // the request is now provably past admission and in flight

	sig <- syscall.SIGTERM
	waitForCond(t, "drain to begin", func() bool {
		d.drainMu.RLock()
		defer d.drainMu.RUnlock()
		return d.draining
	})

	// New requests are refused with 503 + Retry-After while the wedged
	// one is still in flight.
	resp, body := post(t, base+"/v1/retrieve", reqs[1], 2000, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, wire.CodeDraining) {
		t.Fatalf("during drain: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain rejection without a Retry-After header")
	}
	hr, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d", hr.StatusCode)
	}

	// Release the wedge: the in-flight request must complete normally.
	close(gate)
	if got := <-inflight; got != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", got)
	}

	// And the daemon exits cleanly within the drain deadline.
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil (exit 0)", err)
		}
	case <-time.After(opt.drainTimeout + 5*time.Second):
		t.Fatal("daemon did not exit within the drain deadline")
	}
	if !d.svc.Draining() {
		t.Fatal("service not marked draining after shutdown")
	}
}

func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// postAs is post with a tenant identity attached.
func postAs(t *testing.T, url, tenant string, body any, now uint64, out any) (*http.Response, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(nowHeader, fmt.Sprint(now))
	req.Header.Set(tenantHeader, tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v (body %s)", url, err, data)
		}
	}
	return resp, string(data)
}

// metered counts the task table's records charged to a tenant.
func metered(d *daemon) int {
	d.tasksMu.Lock()
	defer d.tasksMu.Unlock()
	n := 0
	for _, rec := range d.tasks {
		if rec.tenant != "" {
			n++
		}
	}
	return n
}

func TestDaemonTenantBudgets(t *testing.T) {
	opt := lockstepOptions()
	// "tiny" cannot afford any bitstream (burst 1 byte, every synthetic
	// footprint streams ≥ 1 KiB); "big" is effectively unmetered but
	// still attributed.
	opt.tenants = "alice=tiny,dave=big"
	opt.classes = "tiny=cfgbps:1,cfgburst:1;big=slices:100000,brams:100000"
	d, base, sig, done := startDaemon(t, opt)
	defer func() { sig <- syscall.SIGTERM; <-done }()
	reqs := testRequests(t, opt, 4)

	alloc := reqs[0]
	alloc.App = "a0"
	alloc.Priority = 5

	// Over-budget tenant: typed 429, and the placement is rolled back.
	resp, body := postAs(t, base+"/v1/allocate", "alice", alloc, 1000, nil)
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(body, wire.CodeBudgetExceeded) {
		t.Fatalf("over-budget allocate: %d %s", resp.StatusCode, body)
	}

	// Anonymous requests are unmetered — and succeed, proving the
	// rejected placement above did not leak platform capacity.
	var ar wire.AllocResponse
	resp, body = post(t, base+"/v1/allocate", alloc, 2000, &ar)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("anonymous allocate: %d %s", resp.StatusCode, body)
	}

	// A solvent tenant is charged, and release returns the grant.
	alloc2 := reqs[1]
	alloc2.App = "a1"
	alloc2.Priority = 5
	var ar2 wire.AllocResponse
	resp, body = postAs(t, base+"/v1/allocate", "dave", alloc2, 3000, &ar2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metered allocate: %d %s", resp.StatusCode, body)
	}
	if held := metered(d); held != 1 {
		t.Fatalf("grants after metered allocate: %d, want 1", held)
	}
	resp, body = post(t, base+"/v1/release", wire.ReleaseRequest{Client: "t", Task: ar2.Task}, 4000, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release: %d %s", resp.StatusCode, body)
	}
	if held := metered(d); held != 0 {
		t.Fatalf("grants after release: %d, want 0", held)
	}
}

// TestDaemonFaultRejectReturnsGrant covers a metered task that fault
// recovery rejects: every device fails under it, so the task is done
// before its client releases it. The tenant's budget charge must come
// back at the clock advance that rejects it; the client's release then
// gets 404 and there is nothing left to return.
func TestDaemonFaultRejectReturnsGrant(t *testing.T) {
	opt := lockstepOptions()
	opt.tenants = "dave=big"
	opt.classes = "big=slices:100000,brams:100000"
	opt.faults = "3500:devfail:fpga0;3500:devfail:dsp0;3500:devfail:gpp0"
	d, base, sig, done := startDaemon(t, opt)
	defer func() { sig <- syscall.SIGTERM; <-done }()
	reqs := testRequests(t, opt, 8)

	// Allocate until a variant with an FPGA footprint is charged, so the
	// ledger's slice count shows the grant too.
	var tasks []int
	for i, alloc := range reqs {
		alloc.App = fmt.Sprintf("a%d", i)
		alloc.Priority = 5
		var ar wire.AllocResponse
		resp, body := postAs(t, base+"/v1/allocate", "dave", alloc, uint64(3000+i), &ar)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metered allocate: %d %s", resp.StatusCode, body)
		}
		tasks = append(tasks, ar.Task)
		if sl, _ := d.ledger.Usage("dave"); sl > 0 {
			break
		}
	}
	if sl, _ := d.ledger.Usage("dave"); sl == 0 {
		t.Fatal("no allocation charged dave any slices")
	}
	if n := metered(d); n != len(tasks) {
		t.Fatalf("grants after %d metered allocates: %d", len(tasks), n)
	}

	// Any request past the faults advances the clock; recovery finds no
	// live device and rejects every task.
	if resp, body := post(t, base+"/v1/retrieve", reqs[0], 6000, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("retrieve: %d %s", resp.StatusCode, body)
	}
	if n := metered(d); n != 0 {
		t.Errorf("grants after the tasks were fault-rejected: %d, want 0", n)
	}
	if sl, br := d.ledger.Usage("dave"); sl != 0 || br != 0 {
		t.Errorf("dave still holds %d slices, %d BRAMs", sl, br)
	}
	for _, task := range tasks {
		resp, body := post(t, base+"/v1/release", wire.ReleaseRequest{Client: "t", Task: task}, 7000, nil)
		if resp.StatusCode != http.StatusNotFound || !strings.Contains(body, wire.CodeUnknownTask) {
			t.Fatalf("release of fault-rejected task %d: %d %s", task, resp.StatusCode, body)
		}
	}
}

// TestDaemonEndpointTable pins each POST endpoint's reply — status and
// code slug — to a malformed body, an unknown type, impl or task, a bad
// X-QoS-Now header, the drain fence and a good request, and whether the
// request moved the admission clock. The clock column pins the stage
// order: retrieve and allocate validate before they read the clock,
// observe, retain and retire read it before checking the variant, and
// release never reads it.
func TestDaemonEndpointTable(t *testing.T) {
	opt := lockstepOptions()
	opt.learn = true
	d, base, sig, done := startDaemon(t, opt)
	defer func() { sig <- syscall.SIGTERM; <-done }()
	reqs := testRequests(t, opt, 4)

	send := func(path string, body any, now string) (int, string) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(nowHeader, now)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e wire.ErrorResponse
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("%s: error body: %v", path, err)
			}
		}
		return resp.StatusCode, e.Code
	}
	var clock uint64 = 1000
	tick := func() string { clock += 1000; return fmt.Sprint(clock) }
	place := func(req wire.AllocRequest) int {
		t.Helper()
		var ar wire.AllocResponse
		resp, body := post(t, base+"/v1/allocate", req, clock, &ar)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("allocate: %d %s", resp.StatusCode, body)
		}
		return ar.Task
	}
	taskA, taskB := place(reqs[1]), place(reqs[2])

	ft := d.svc.CaseBase().Types()[0]
	im := ft.Impls[0]
	var attrs []wire.MeasurementJSON
	for _, p := range im.Attrs {
		attrs = append(attrs, wire.MeasurementJSON{ID: uint16(p.ID), Value: uint16(p.Value)})
	}
	ty, impl := uint16(ft.ID), uint16(im.ID)
	unknownType := reqs[0]
	unknownType.Type = 999
	observe := wire.ObserveRequest{Client: "t", Type: ty, Impl: impl, Measured: attrs}
	retain := wire.RetainRequest{Client: "t", Type: ty, Target: im.Target.String(), Attrs: attrs}
	retire := wire.RetireRequest{Client: "t", Type: ty, Impl: uint16(ft.Impls[1].ID)}
	unknownImpl := observe
	unknownImpl.Impl = 999
	unknownRetain := retain
	unknownRetain.Type = 999
	unknownRetire := retire
	unknownRetire.Impl = 999
	malformed := map[string]any{"bogus": 1}

	const good, badNow, draining = "good", "bad", "draining"
	cases := []struct {
		path   string
		name   string
		body   any
		now    string // good, badNow or draining
		status int
		code   string
		ticks  bool // the request moved the admission clock
	}{
		{"/v1/retrieve", "malformed", malformed, good, 400, wire.CodeBadRequest, false},
		{"/v1/retrieve", "unknown type", unknownType, good, 400, wire.CodeBadRequest, false},
		{"/v1/retrieve", "bad now", reqs[0], badNow, 400, wire.CodeBadRequest, false},
		{"/v1/retrieve", "draining", reqs[0], draining, 503, wire.CodeDraining, false},
		{"/v1/retrieve", "ok", reqs[0], good, 200, "", true},

		{"/v1/allocate", "malformed", malformed, good, 400, wire.CodeBadRequest, false},
		{"/v1/allocate", "unknown type", unknownType, good, 400, wire.CodeBadRequest, false},
		{"/v1/allocate", "bad now", reqs[3], badNow, 400, wire.CodeBadRequest, false},
		{"/v1/allocate", "draining", reqs[3], draining, 503, wire.CodeDraining, false},
		{"/v1/allocate", "ok", reqs[3], good, 200, "", true},

		{"/v1/release", "malformed", malformed, good, 400, wire.CodeBadRequest, false},
		{"/v1/release", "unknown task", wire.ReleaseRequest{Client: "t", Task: 99999}, good, 404, wire.CodeUnknownTask, false},
		{"/v1/release", "bad now", wire.ReleaseRequest{Client: "t", Task: taskA}, badNow, 200, "", false},
		{"/v1/release", "draining", wire.ReleaseRequest{Client: "t", Task: taskB}, draining, 503, wire.CodeDraining, false},
		{"/v1/release", "ok", wire.ReleaseRequest{Client: "t", Task: taskB}, good, 200, "", false},

		{"/v1/observe", "malformed", malformed, good, 400, wire.CodeBadRequest, false},
		{"/v1/observe", "unknown impl", unknownImpl, good, 404, wire.CodeNoMatch, true},
		{"/v1/observe", "bad now", observe, badNow, 400, wire.CodeBadRequest, false},
		{"/v1/observe", "draining", observe, draining, 503, wire.CodeDraining, false},
		{"/v1/observe", "ok", observe, good, 200, "", true},

		{"/v1/retain", "malformed", malformed, good, 400, wire.CodeBadRequest, false},
		{"/v1/retain", "unknown type", unknownRetain, good, 404, wire.CodeNoMatch, true},
		{"/v1/retain", "bad now", retain, badNow, 400, wire.CodeBadRequest, false},
		{"/v1/retain", "draining", retain, draining, 503, wire.CodeDraining, false},
		{"/v1/retain", "ok", retain, good, 200, "", true},

		{"/v1/retire", "malformed", malformed, good, 400, wire.CodeBadRequest, false},
		{"/v1/retire", "unknown impl", unknownRetire, good, 404, wire.CodeNoMatch, true},
		{"/v1/retire", "bad now", retire, badNow, 400, wire.CodeBadRequest, false},
		{"/v1/retire", "draining", retire, draining, 503, wire.CodeDraining, false},
		{"/v1/retire", "ok", retire, good, 200, "", true},
	}
	for _, c := range cases {
		before := d.simNow.Load()
		now := tick()
		switch c.now {
		case badNow:
			now = "soon"
		case draining:
			d.drainMu.Lock()
			d.draining = true
			d.drainMu.Unlock()
		}
		status, code := send(c.path, c.body, now)
		if c.now == draining {
			d.drainMu.Lock()
			d.draining = false
			d.drainMu.Unlock()
		}
		if status != c.status || code != c.code {
			t.Errorf("%s %s: %d %q, want %d %q", c.path, c.name, status, code, c.status, c.code)
		}
		if ticked := d.simNow.Load() != before; ticked != c.ticks {
			t.Errorf("%s %s: clock moved %v, want %v", c.path, c.name, ticked, c.ticks)
		}
	}
}

// TestDaemonReleaseChecksOwner: a client may release only the tasks it
// placed. Another client's release gets the reply a never-issued ID
// gets, and the task keeps running with its tenant's charge.
func TestDaemonReleaseChecksOwner(t *testing.T) {
	opt := lockstepOptions()
	opt.tenants = "dave=big"
	opt.classes = "big=slices:100000,brams:100000"
	d, base, sig, done := startDaemon(t, opt)
	defer func() { sig <- syscall.SIGTERM; <-done }()
	reqs := testRequests(t, opt, 1)

	var ar wire.AllocResponse
	resp, body := postAs(t, base+"/v1/allocate", "dave", reqs[0], 1000, &ar)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("allocate: %d %s", resp.StatusCode, body)
	}
	slices, brams := d.ledger.Usage("dave")

	resp, body = post(t, base+"/v1/release", wire.ReleaseRequest{Client: "mallory", Task: ar.Task}, 2000, nil)
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(body, wire.CodeUnknownTask) {
		t.Fatalf("release by another client: %d %s", resp.StatusCode, body)
	}
	var live bool
	d.svc.Exclusive(func() { _, live = d.rt.Task(qosalloc.TaskID(ar.Task)) })
	if !live {
		t.Fatal("another client's release removed the task")
	}
	if sl, br := d.ledger.Usage("dave"); sl != slices || br != brams || metered(d) != 1 {
		t.Fatalf("another client's release moved the charge: %d slices, %d BRAMs, %d records", sl, br, metered(d))
	}

	resp, body = post(t, base+"/v1/release", wire.ReleaseRequest{Client: "t", Task: ar.Task}, 3000, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release by the owner: %d %s", resp.StatusCode, body)
	}
	if metered(d) != 0 {
		t.Fatal("the owner's release kept the task's record")
	}
}
