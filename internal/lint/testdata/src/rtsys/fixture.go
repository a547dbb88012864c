// Package rtsys is the detlint fixture: its name places it in the
// deterministic set, so wall-clock reads, the global math/rand source
// and order-dependent map iteration are all diagnosed.
package rtsys

import (
	"math/rand"
	"obs"
	"sort"
	"time"
)

func wallClock() int64 {
	return time.Now().UnixNano() // want `detlint: time\.Now reads the wall clock`
}

func wallElapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `detlint: time\.Since reads the wall clock`
}

func globalRand() int {
	return rand.Intn(8) // want `detlint: global math/rand\.Intn`
}

func globalSeed() {
	rand.Seed(42) // want `detlint: global math/rand\.Seed`
}

func wallClockSeed() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `detlint: rand\.NewSource seeded from the wall clock` `detlint: time\.Now reads the wall clock`
}

// threadedRand is the sanctioned shape: an explicit generator with a
// caller-controlled seed.
func threadedRand(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(8)
}

func appendValues(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v) // want `detlint: append inside map iteration`
	}
	return out
}

// collectAndSort is the sanctioned shape: the sort after the loop
// erases the iteration order (PR 2's own fix).
func collectAndSort(m map[int]string) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

func sendValues(m map[int]string, ch chan string) {
	for _, v := range m {
		ch <- v // want `detlint: channel send inside map iteration`
	}
}

func observeValues(m map[int]int64, h *obs.Histogram, tr *obs.Ring) {
	for _, v := range m {
		h.Observe(v) // want `detlint: obs Observe inside map iteration`
	}
	for k := range m {
		tr.Append(obs.Event{At: int64(k), Kind: "seen"}) // want `detlint: obs Append inside map iteration`
	}
}

// suppressedClock carries a documented exception: no diagnostic.
func suppressedClock() int64 {
	//qosvet:ignore detlint fixture exercising the documented suppression path
	return time.Now().UnixNano()
}

// suppressedTrailing exercises the same-line suppression form.
func suppressedTrailing() int64 {
	return time.Now().UnixNano() //qosvet:ignore detlint fixture: trailing-comment suppression
}

// wrongAnalyzer shows suppressions are per-analyzer: an ignore naming
// another analyzer does not silence detlint.
func wrongAnalyzer() int64 {
	//qosvet:ignore q15lint suppressions are per-analyzer; this one does not match
	return time.Now().UnixNano() // want `detlint: time\.Now reads the wall clock`
}

func badSuppression() int64 {
	/* want `qosvet: malformed suppression` */ //qosvet:ignore detlint
	return time.Now().UnixNano()               // want `detlint: time\.Now reads the wall clock`
}
