package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The traced run records one span per layer call: the root span is the
// public call the client makes, and its children are the layer calls
// the benchmark replays for the same op right after the root returns
// (a standalone engine walk, a shadow placement, wire decode/encode,
// the admission gate). Child and root share the op id. Because the
// children run beside the root rather than inside it, a layer's self
// time is its span minus the durations of its children.

// layer names a span kind.
type layer uint8

const (
	lRetrieve    layer = iota // root: Service.Retrieve
	lAllocate                 // root: Service.Allocate
	lRelease                  // root: Service.Release
	lObserve                  // root: Service.Observe that left the epoch unchanged
	lCommit                   // root: a mutation call that advanced the epoch
	lHTTP                     // root: one /v1/retrieve round trip
	lServe                    // child of lHTTP: Service.Retrieve replayed in-process
	lWalk                     // child: Engine.Retrieve on the op's request
	lWalkN                    // child: Engine.RetrieveN
	lPlace                    // child: Manager.PlaceCandidates on a shadow manager
	lSignature                // child: retrieval.Signature
	lTokenLookup              // child: TokenCache.LookupSig
	lDecode                   // child: wire.DecodeAllocRequest
	lEncode                   // child: JSON encoding of wire.RetrieveResponse
	lAdmit                    // child: Gate.Admit + Gate.Record
	lSelf                     // derived: serve span minus its walk child
	numLayers
)

var layerNames = [numLayers]string{
	"serve.retrieve", "serve.allocate", "serve.release", "learn.observe",
	"serve.commit", "http.retrieve", "serve.retrieve.replay", "retrieval.walk",
	"retrieval.walkn", "alloc.place", "retrieval.signature",
	"retrieval.token_lookup", "wire.decode", "wire.encode", "admit.admit",
	"serve.self",
}

// noParent marks a root span.
const noParent = layer(0xff)

// span is one recorded layer call, in nanoseconds since clockBase.
type span struct {
	op         uint64
	l, parent  layer
	start, dur int64
}

// spanSample bounds how many spans each client keeps for the span file;
// the per-layer histograms see every span.
const spanSample = 4096

// traceDir is where a traced run writes its span sample, relative to
// the directory the benchmark runs in.
const traceDir = ".bench_build/trace"

// tracer is one client's span store.
type tracer struct {
	h     [numLayers]hist
	spans []span
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, spanSample)} }

// add records a span that started at start and ended now; it returns
// the duration.
func (t *tracer) add(op uint64, l, parent layer, start int64) int64 {
	dur := nanotime() - start
	t.record(op, l, parent, start, dur)
	return dur
}

func (t *tracer) record(op uint64, l, parent layer, start, dur int64) {
	t.h[l].record(dur)
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{op: op, l: l, parent: parent, start: start, dur: dur})
	}
}

// layerHists merges every client's histogram per layer.
func layerHists(clients []*client) *[numLayers]hist {
	var out [numLayers]hist
	for _, c := range clients {
		for l := range out {
			out[l].merge(&c.tr.h[l])
		}
	}
	return &out
}

// writeSpans writes the clients' span samples as JSON lines to
// <traceDir>/<workload>-seed<seed>.jsonl.
func writeSpans(cfg config, clients []*client) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Client  int    `json:"client"`
		Op      uint64 `json:"op"`
		Span    string `json:"span"`
		Parent  string `json:"parent,omitempty"`
		StartNS int64  `json:"start_ns"`
		DurNS   int64  `json:"dur_ns"`
	}
	for _, c := range clients {
		for _, s := range c.tr.spans {
			l := line{Client: c.idx, Op: s.op, Span: layerNames[s.l], StartNS: s.start, DurNS: s.dur}
			if s.parent != noParent {
				l.Parent = layerNames[s.parent]
			}
			if err := enc.Encode(l); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "spans: %s\n", path)
	return nil
}

// overheadPct is how much slower the traced root p50 ran than the
// untraced one, in percent.
func overheadPct(traced, untraced float64) float64 {
	return 100 * (ratio(traced, untraced) - 1)
}
