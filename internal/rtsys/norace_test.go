//go:build !race

package rtsys_test

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
