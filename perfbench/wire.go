package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qosalloc"
	"qosalloc/internal/admit"
	"qosalloc/internal/device"
	"qosalloc/internal/wire"
)

// wireWorkload replays hot_small's op mix as /v1/retrieve JSON against
// cmd/qosd running as a child process on loopback, one keep-alive
// connection per closed-loop client. The serve work equals hot_small's;
// the difference is net/http, the wire decode/encode, and admission.
type wireWorkload struct {
	spec      qosalloc.CaseBaseSpec // the daemon's -types/-impls/-attrs/-universe
	k         int
	hot       int
	opsPerSec float64
}

// daemonMinStarts is the least number of cold daemon starts a run
// times; setup_s is their median (see moreSetups).
const daemonMinStarts = 7

// daemon is one running qosd child.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	pid    string
	stdout chan error // receives once the rest of stdout has been drained
	stderr *bytes.Buffer
}

// startDaemon execs qosd and returns once /healthz answers 200, with the
// time from exec to that answer.
func startDaemon(bin string, args []string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOGC="+strconv.Itoa(gcPercent))
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, stderr: &bytes.Buffer{}, stdout: make(chan error, 1)}
	cmd.Stderr = d.stderr
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start qosd: %w", err)
	}
	d.pid = strconv.Itoa(cmd.Process.Pid)
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	// The daemon writes its final metrics snapshot to stdout on exit;
	// keep draining so it never blocks on a full pipe.
	go func() {
		_, err := io.Copy(io.Discard, br)
		d.stdout <- err
	}()
	if err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("qosd exited before listening: %v: %s", err, d.stderr.String())
	}
	_, rest, ok := strings.Cut(line, "listening on ")
	if !ok {
		d.stop()
		return nil, 0, fmt.Errorf("unexpected qosd banner %q", line)
	}
	d.url = strings.Fields(rest)[0]
	hc := &http.Client{Transport: &http.Transport{Proxy: nil}, Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	for {
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // a health probe's body carries nothing
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("qosd never became healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs, and
// waits for it to exit.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is fine
	done := make(chan error, 1)
	go func() {
		<-d.stdout
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill() // the hang is reported below
		<-done
		return fmt.Errorf("qosd did not drain within 15s")
	}
}

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + d.pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the line, in clock ticks (USER_HZ = 100).
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", d.pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// stats reads the daemon's serve counters from /statz.
func (d *daemon) stats(hc *http.Client) (qosalloc.ServiceStats, error) {
	var st struct {
		Serve qosalloc.ServiceStats `json:"serve"`
	}
	resp, err := hc.Get(d.url + "/statz")
	if err != nil {
		return st.Serve, err
	}
	defer resp.Body.Close()
	return st.Serve, json.NewDecoder(resp.Body).Decode(&st)
}

func (w wireWorkload) daemonArgs(cbSeed int64) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-types", strconv.Itoa(w.spec.Types), "-impls", strconv.Itoa(w.spec.ImplsPerType),
		"-attrs", strconv.Itoa(w.spec.AttrsPerImpl), "-universe", strconv.Itoa(w.spec.AttrUniverse),
		"-cb-seed", strconv.FormatInt(cbSeed, 10),
		// Admission limits far above what the clients can send, so
		// nothing is refused: every op reaches the service.
		"-rate", "1000000000", "-burst", "1000000000",
		"-request-timeout", "30s",
	}
}

// appendBody appends op's /v1/retrieve JSON body. Weights are left out:
// the daemon then weights the constraints equally, as the in-process
// requests are.
func appendBody(b []byte, clientName string, req qosalloc.Request) []byte {
	b = append(b, `{"client":"`...)
	b = append(b, clientName...)
	b = append(b, `","type":`...)
	b = strconv.AppendUint(b, uint64(req.Type), 10)
	b = append(b, `,"constraints":[`...)
	for j, c := range req.Constraints {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendUint(b, uint64(c.ID), 10)
		b = append(b, `,"value":`...)
		b = strconv.AppendUint(b, uint64(c.Value), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// viaWire is the request the daemon serves for req: the body decoded
// and converted the way the daemon does it.
func viaWire(req qosalloc.Request) (qosalloc.Request, error) {
	ar, err := wire.DecodeAllocRequest(bytes.NewReader(appendBody(nil, "check", req)))
	if err != nil {
		return qosalloc.Request{}, err
	}
	return ar.Request(), nil
}

// wireClient is one client's connection and reusable buffers.
type wireClient struct {
	hc   *http.Client
	url  string
	name string
	body []byte // the cold-request body buffer
	resp bytes.Buffer
}

// do posts one body and returns the answer and the round-trip time
// (request written to response fully read).
func (wc *wireClient) do(body []byte) (qosalloc.Result, int64, error) {
	hreq, err := http.NewRequest(http.MethodPost, wc.url, bytes.NewReader(body))
	if err != nil {
		return qosalloc.Result{}, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	t0 := nanotime()
	resp, err := wc.hc.Do(hreq)
	if err != nil {
		return qosalloc.Result{}, nanotime() - t0, err
	}
	wc.resp.Reset()
	_, err = wc.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	dur := nanotime() - t0
	if err != nil {
		return qosalloc.Result{}, dur, err
	}
	if resp.StatusCode != http.StatusOK {
		return qosalloc.Result{}, dur, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(wc.resp.Bytes()))
	}
	var rr wire.RetrieveResponse
	if err := json.Unmarshal(wc.resp.Bytes(), &rr); err != nil {
		return qosalloc.Result{}, dur, fmt.Errorf("decode response: %w", err)
	}
	return qosalloc.Result{Type: qosalloc.TypeID(rr.Type), Impl: qosalloc.ImplID(rr.Impl), Similarity: rr.Similarity}, dur, nil
}

func (w wireWorkload) run(cfg config) (*outcome, error) {
	if cfg.qosd == "" {
		return nil, errors.New("qosd_wire needs -qosd (the daemon binary)")
	}
	spec := w.spec
	spec.Seed = int64(derive(cfg.seed, tagCaseBase, 0) >> 1)
	cb, _, err := qosalloc.GenCaseBase(spec)
	if err != nil {
		return nil, err
	}
	in, err := newRetrieveInputs(cb, cfg.seed, uint64(w.opsPerSec*float64(cfg.seconds)), w.hot, w.k)
	if err != nil {
		return nil, err
	}
	args := w.daemonArgs(spec.Seed)
	var starts []float64
	var d *daemon
	// live is the daemon still to stop if the run fails part-way.
	var live *daemon
	defer func() {
		if live != nil {
			_ = live.stop() // the run already failed; its error is the one reported
		}
	}()
	for start := time.Now(); moreSetups(len(starts), daemonMinStarts, start); {
		if d != nil {
			live = nil
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("qosd did not drain cleanly: %v: %s", err, d.stderr.String())
			}
		}
		var took time.Duration
		if d, took, err = startDaemon(cfg.qosd, args); err != nil {
			return nil, err
		}
		live = d
		starts = append(starts, took.Seconds())
	}
	nc := numClients()
	ctl := &http.Client{Transport: &http.Transport{Proxy: nil}, Timeout: 10 * time.Second}
	defer ctl.CloseIdleConnections()

	before, err := d.stats(ctl)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	p := w.pass(d, in, nc, nil)
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(d.pid)
	if err != nil {
		return nil, err
	}
	after, err := d.stats(ctl)
	if err != nil {
		return nil, err
	}
	live = nil
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("qosd did not drain cleanly: %v: %s", err, d.stderr.String())
	}
	out := &outcome{attempted: p.ops, failed: p.failed}
	out.e2e = endToEndValues(p, cpu1-cpu0, rss, median(starts))

	// Output check: every body against the in-process result for the
	// same request — a fresh engine walk of the request as the daemon
	// decodes it.
	want, walks := in.expected(cb, nc, viaWire)
	if p.digest != want {
		out.problem("daemon bodies differ from in-process results (outcome digest %016x, want %016x)", p.digest, want)
	}
	checkServeAccounting(out, before, after, p.ops)
	if !cfg.trace {
		return out, nil
	}

	// Traced pass: the schedule again, to a freshly started daemon, with
	// each op's layers replayed in-process on the same body and tree.
	doc, err := encodeCaseBase(cb)
	if err != nil {
		return nil, err
	}
	svcOpts := []qosalloc.Option{qosalloc.WithShards(4), qosalloc.WithMaxBatch(16), qosalloc.WithMaxQueue(64), qosalloc.WithPreemption(true)}
	svc, st, err := timedSetups(doc, in.probe, svcOpts)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	td, _, err := startDaemon(cfg.qosd, args)
	if err != nil {
		return nil, err
	}
	live = td
	tp := w.pass(td, in, nc, &replay{cb: cb, svc: svc, gate: newGate(svc.Shards())})
	live = nil
	if err := td.stop(); err != nil {
		return nil, fmt.Errorf("qosd did not drain cleanly: %v: %s", err, td.stderr.String())
	}
	if tp.digest != want || tp.mismatches != 0 {
		out.problem("traced pass: daemon or replayed results differ from fresh walks (%d replay mismatches)", tp.mismatches)
	}
	lh := layerHists(tp.clients)
	q50 := func(l layer) float64 { return lh[l].quantile(0.5) }
	v := zeroLayers()
	setupValues(v, st)
	serveCountValues(v, before, after, p.ops)
	walkValues(v, lh, walks)
	v["serve.retrieve_us_p50"] = q50(lServe) / 1e3
	v["serve.retrieve_us_p99"] = lh[lServe].quantile(0.99) / 1e3
	v["serve.self_us_p50"] = q50(lSelf) / 1e3
	wireValues(v, lh)
	v["http.other_us_p50"] = (q50(lHTTP) - q50(lDecode) - q50(lAdmit) - q50(lServe) - q50(lEncode)) / 1e3
	v["trace.overhead_pct"] = overheadPct(tp.lat.quantile(0.5), p.lat.quantile(0.5))
	out.layers = v
	return out, writeSpans(cfg, tp.clients)
}

// replay is what a traced pass replays each op's layers on: the tree,
// an in-process service configured like the daemon's, and an admission
// gate.
type replay struct {
	cb   *qosalloc.CaseBase
	svc  *qosalloc.Service
	gate *admit.Gate
}

// pass runs the schedule against daemon d, one keep-alive connection
// per client. With rp non-nil it is the traced pass.
func (w wireWorkload) pass(d *daemon, in *retrieveInputs, nc int, rp *replay) *pass {
	ctx := context.Background()
	return runPass(nc, in.n, rp != nil, func(c *client) {
		wc := &wireClient{
			hc: &http.Client{Transport: &http.Transport{
				Proxy: nil, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
			}},
			url:  d.url + "/v1/retrieve",
			name: "c" + strconv.Itoa(c.idx),
		}
		defer wc.hc.CloseIdleConnections()
		hot := make([][]byte, len(in.hotReqs))
		for h, req := range in.hotReqs {
			hot[h] = appendBody(nil, wc.name, req)
		}
		buf := make([]qosalloc.Constraint, w.k)
		var eng *qosalloc.Engine
		var tc *qosalloc.TokenCache
		if rp != nil {
			eng, tc = qosalloc.NewRetrievalEngine(rp.cb), qosalloc.NewTokenCache()
		}
		var wr *wireReplay
		if rp != nil {
			wr = &wireReplay{gate: rp.gate}
		}
		var body []byte
		for i, ok := c.take(); ok; i, ok = c.take() {
			req, h := in.request(i, buf)
			if h >= 0 {
				body = hot[h]
			} else {
				body = appendBody(wc.body[:0], wc.name, req)
				wc.body = body
			}
			t0 := nanotime()
			r, dur, err := wc.do(body)
			c.latency(i, dur)
			c.count(err)
			word := outcomeWord(i, r, err)
			c.digest += word
			if rp == nil {
				continue
			}
			c.tr.record(i, lHTTP, noParent, t0, dur)

			ar, err := wr.decodeAdmit(c, i, lHTTP, body)
			if err != nil {
				c.mismatches++
				continue
			}
			wreq := ar.Request()
			t := nanotime()
			sr, serr := rp.svc.Retrieve(ctx, wreq)
			sdur := c.tr.add(i, lServe, lHTTP, t)
			if outcomeWord(i, sr, serr) != word {
				c.mismatches++
			}
			c.tr.h[lSelf].record(sdur - replayWalk(c, i, lServe, in.walks(i, h), eng, wreq, word))
			replayTokenPath(c, i, lServe, wreq, tc, sr, serr)
			wr.encode(c, i, lHTTP, sr)
		}
	})
}

// wireValues reports the replayed wire layers.
func wireValues(v values, lh *[numLayers]hist) {
	v["wire.decode_us_p50"] = lh[lDecode].quantile(0.5) / 1e3
	v["wire.encode_us_p50"] = lh[lEncode].quantile(0.5) / 1e3
	v["admit.admit_ns_p50"] = lh[lAdmit].quantile(0.5)
}

// wireReplay replays the daemon's per-request wire work on one body
// for a traced pass: the strict decode, the admission gate, and the
// response encode. One per client; the gate is shared.
type wireReplay struct {
	gate *admit.Gate
	rd   bytes.Reader
	enc  bytes.Buffer
}

// newGate is an admission gate configured like the benchmark's qosd:
// limits far above the offered load.
func newGate(shards int) *admit.Gate {
	return admit.NewGate(admit.GateConfig{
		Shards:  shards,
		Limiter: admit.LimiterConfig{RatePerSec: 1_000_000_000, Burst: 1_000_000_000},
	}, nil)
}

// decodeAdmit times wire.DecodeAllocRequest of body, then the gate's
// Admit and Record for it, as children of parent. A refusal is an
// error: the gate is set never to refuse.
func (wr *wireReplay) decodeAdmit(c *client, op uint64, parent layer, body []byte) (*wire.AllocRequest, error) {
	t := nanotime()
	wr.rd.Reset(body)
	ar, err := wire.DecodeAllocRequest(&wr.rd)
	c.tr.add(op, lDecode, parent, t)
	if err != nil {
		return nil, err
	}
	t = nanotime()
	shard := wr.gate.Shard(qosalloc.TypeID(ar.Type))
	err = wr.gate.Admit(ar.Client, shard, device.Micros(t/1e3))
	wr.gate.Record(shard, device.Micros(t/1e3), false)
	c.tr.add(op, lAdmit, parent, t)
	return ar, err
}

// encode times the JSON encoding of r as the daemon's response body.
func (wr *wireReplay) encode(c *client, op uint64, parent layer, r qosalloc.Result) {
	t := nanotime()
	wr.enc.Reset()
	_ = json.NewEncoder(&wr.enc).Encode(wire.RetrieveResponse{ // a bytes.Buffer write cannot fail
		Type: uint16(r.Type), Impl: uint16(r.Impl), Target: r.Target.String(), Name: r.Name, Similarity: r.Similarity,
	})
	c.tr.add(op, lEncode, parent, t)
}
