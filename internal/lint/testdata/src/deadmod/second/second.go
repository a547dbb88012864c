// Package second is a separate module that uses the fixture.
package second

import "deadmod/internal/dead"

// Run calls a name no package of the first module uses.
func Run() { dead.FromSecond() }
