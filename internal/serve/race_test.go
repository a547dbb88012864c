//go:build race

package serve

// raceEnabled reports a -race build, whose instrumentation allocates:
// allocation pins skip.
const raceEnabled = true
