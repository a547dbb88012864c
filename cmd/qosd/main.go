// Command qosd serves the QoS allocation pipeline over HTTP/JSON: the
// paper's retrieval + allocation stack behind an admission-control
// layer (per-client token buckets, per-shard circuit breakers fed by
// platform fault signals, typed overload shedding) with graceful drain
// on SIGTERM.
//
// Endpoints:
//
//	POST /v1/retrieve   {"client","type","constraints":[{"id","value","weight"}]}
//	POST /v1/allocate   retrieve body + {"app","priority","hold_us"}
//	POST /v1/release    {"client","task"}                                           (placing client only)
//	POST /v1/observe    {"client","type","impl","measured":[{"id","value"}]}        (-learn)
//	POST /v1/retain     {"client","type","target","attrs",...,"footprint",...}      (-learn)
//	POST /v1/retire     {"client","type","impl","at_epoch"}                         (-learn)
//	GET  /metrics       Prometheus text exposition
//	GET  /statz         JSON state snapshot
//	GET  /healthz       "ok", or 503 "draining" during shutdown
//
// Errors are JSON {"code","error","retry_after_us"} with a stable code
// slug; 429/503 rejections carry a Retry-After header derived from the
// typed hint. With -lockstep the admission clock is taken from each
// request's X-QoS-Now header (sim µs) instead of the wall clock, so a
// fixed request schedule replays to identical outcomes — the mode the
// qosload harness uses for its determinism check.
//
// The daemon serves a synthetic case base generated from -cb-seed and
// the -types/-impls/-attrs/-universe spec; qosload generates requests
// against the same spec, which is the whole client/server contract.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	opt := defaultOptions()
	flag.StringVar(&opt.addr, "addr", opt.addr, "listen address")
	flag.IntVar(&opt.shards, "shards", opt.shards, "retrieval shards")
	flag.IntVar(&opt.maxBatch, "max-batch", opt.maxBatch, "max requests per micro-batch")
	flag.IntVar(&opt.maxQueue, "max-queue", opt.maxQueue, "per-shard bound on concurrent retrieval walks; a call beyond it is shed")
	flag.Float64Var(&opt.threshold, "threshold", opt.threshold, "similarity acceptance threshold")
	flag.BoolVar(&opt.preemption, "preemption", opt.preemption, "allow priority preemption")
	flag.IntVar(&opt.types, "types", opt.types, "case-base function types")
	flag.IntVar(&opt.implsPerType, "impls", opt.implsPerType, "implementations per type")
	flag.IntVar(&opt.attrsPerImpl, "attrs", opt.attrsPerImpl, "attributes per implementation")
	flag.IntVar(&opt.attrUniverse, "universe", opt.attrUniverse, "distinct attribute types")
	flag.Int64Var(&opt.cbSeed, "cb-seed", opt.cbSeed, "case-base generator seed (shared with qosload)")
	flag.Int64Var(&opt.ratePerSec, "rate", opt.ratePerSec, "per-client token-bucket refill (req/s of sim time)")
	flag.Int64Var(&opt.burst, "burst", opt.burst, "per-client token-bucket capacity")
	flag.IntVar(&opt.brkWindow, "brk-window", opt.brkWindow, "breaker rolling outcome window")
	flag.Float64Var(&opt.brkRatio, "brk-ratio", opt.brkRatio, "breaker failure-ratio trip point")
	flag.IntVar(&opt.brkMinSamples, "brk-min", opt.brkMinSamples, "breaker min window samples before tripping")
	flag.Uint64Var(&opt.brkBackoffUS, "brk-backoff-us", opt.brkBackoffUS, "breaker first open interval (sim µs, 0 = default)")
	flag.Uint64Var(&opt.brkMaxBackoffUS, "brk-max-backoff-us", opt.brkMaxBackoffUS, "breaker backoff cap (sim µs, 0 = default)")
	flag.StringVar(&opt.faults, "faults", opt.faults, "scripted fault plan (at:kind:device[:slot];...)")
	flag.StringVar(&opt.tenants, "tenants", opt.tenants, "tenant QoS-class bindings (tenant=class,...; empty = unmetered)")
	flag.StringVar(&opt.classes, "classes", opt.classes, "QoS class budgets (class=slices:N,brams:N,cfgbps:N,cfgburst:N;...)")
	flag.BoolVar(&opt.learn, "learn", opt.learn, "enable live case-base mutation (/v1/observe|retain|retire)")
	flag.Float64Var(&opt.learnAlpha, "learn-alpha", opt.learnAlpha, "EWMA weight of new observations in (0,1]")
	flag.IntVar(&opt.learnFold, "learn-fold", opt.learnFold, "pending LSB-visible revisions that trip a commit")
	flag.Uint64Var(&opt.learnMaxAgeUS, "learn-max-age-us", opt.learnMaxAgeUS, "sim-µs age of pending observations that trips a commit (0 = off)")
	flag.BoolVar(&opt.lockstep, "lockstep", opt.lockstep, "take the admission clock from the X-QoS-Now header")
	flag.DurationVar(&opt.requestTimeout, "request-timeout", opt.requestTimeout, "per-request service deadline")
	flag.DurationVar(&opt.drainTimeout, "drain-timeout", opt.drainTimeout, "SIGTERM drain deadline")
	flag.Parse()

	d, err := newDaemon(opt)
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("qosd: listening on http://%s (lockstep=%v, shards=%d)\n",
		ln.Addr(), opt.lockstep, opt.shards)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	if err := d.run(ln, sig, os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "qosd: %v\n", err)
	os.Exit(1)
}
