package main

import "math/bits"

// hist is a fixed-size log-linear histogram of non-negative int64
// samples (nanoseconds, in practice). Values below 2·subCount land in
// exact unit-wide buckets; above that every power-of-two octave is split
// into subCount equal buckets, so a bucket is never wider than 1/128 of
// its lower bound. Recording never allocates, so a run's memory does not
// grow with its sample count.
type hist struct {
	counts [numBuckets]uint64
	n      uint64
}

const (
	subBits  = 7
	subCount = 1 << subBits // buckets per octave
	// maxOctave is the last octave with buckets of its own (2^40 ns is
	// about 18 minutes); larger samples land in the top bucket.
	maxOctave  = 40
	numBuckets = 2*subCount + (maxOctave-subBits)*subCount
)

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 2*subCount {
		return int(v)
	}
	k := bits.Len64(uint64(v)) - 1 // v in [2^k, 2^(k+1)), k > subBits
	if k > maxOctave {
		return numBuckets - 1
	}
	shift := k - subBits
	return 2*subCount + (shift-1)*subCount + int(v>>shift) - subCount
}

// bucketBounds returns bucket i's lower bound and width.
func bucketBounds(i int) (lo, width float64) {
	if i < 2*subCount {
		return float64(i), 1
	}
	shift := (i-2*subCount)/subCount + 1
	sub := (i-2*subCount)%subCount + subCount
	return float64(int64(sub) << shift), float64(int64(1) << shift)
}

func (h *hist) record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q <= 1), interpolating linearly
// inside the bucket that holds the rank, so the answer moves with the
// counts instead of snapping to bucket bounds. Zero when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo, w := bucketBounds(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum = next
	}
	lo, w := bucketBounds(numBuckets - 1)
	return lo + w
}
