//go:build race

package retrieval

// raceEnabled reports a -race build, whose instrumentation allocates and
// slows the engine: allocation guards skip, long randomized tests shrink.
const raceEnabled = true
