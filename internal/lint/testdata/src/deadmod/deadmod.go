// Package deadmod is the deadcode gate's fixture module. Its root
// package plays the facade: it aliases dead.Facade and calls dead.Live.
package deadmod

import "deadmod/internal/dead"

// Handle is a facade alias, so Facade's exported methods are live.
type Handle = dead.Facade

// Run is the facade's entry point.
func Run() { dead.Live() }
