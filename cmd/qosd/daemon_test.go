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
	d.grantMu.Lock()
	held := len(d.grants)
	d.grantMu.Unlock()
	if held != 1 {
		t.Fatalf("grants after metered allocate: %d, want 1", held)
	}
	resp, body = post(t, base+"/v1/release", wire.ReleaseRequest{Client: "t", Task: ar2.Task}, 4000, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release: %d %s", resp.StatusCode, body)
	}
	d.grantMu.Lock()
	held = len(d.grants)
	d.grantMu.Unlock()
	if held != 0 {
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

	held := func() int {
		d.grantMu.Lock()
		defer d.grantMu.Unlock()
		return len(d.grants)
	}
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
	if n := held(); n != len(tasks) {
		t.Fatalf("grants after %d metered allocates: %d", len(tasks), n)
	}

	// Any request past the faults advances the clock; recovery finds no
	// live device and rejects every task.
	if resp, body := post(t, base+"/v1/retrieve", reqs[0], 6000, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("retrieve: %d %s", resp.StatusCode, body)
	}
	if n := held(); n != 0 {
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
