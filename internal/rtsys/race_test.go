//go:build race

package rtsys_test

// raceEnabled reports a -race build, whose instrumentation allocates:
// allocation comparisons skip.
const raceEnabled = true
