//go:build !race

package retrieval

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
