// Package dead holds the declarations the deadcode fixture judges.
package dead

// namer is an interface that T satisfies.
type namer interface{ Name() string }

// T is live: Live returns it.
type T struct{}

// Name satisfies namer, so it lives as long as T does.
func (T) Name() string { return "t" }

// Method is a dead method of a live type.
func (T) Method() {} // want `method dead\.\(T\)\.Method is unused`

// Live is called from the root package.
func Live() namer {
	helper()
	keptButUsed()
	return T{}
}

func helper() {}

// Dead is a dead function; its only caller is a test.
func Dead() { onlyDead() } // want `func dead\.Dead is unused`

// onlyDead is named only by Dead.
func onlyDead() {} // want `func dead\.onlyDead is used only by unused code`

// FromSecond is called only from the second module.
func FromSecond() {}

// Facade is aliased by the root package.
type Facade struct{}

// Exported is reachable through the alias.
func (Facade) Exported() { helper() }

// unexported is not.
func (Facade) unexported() {} // want `method dead\.\(Facade\)\.unexported is unused`

// Reference is a check only tests compare against.
//
//qosvet:keep the fixture's reference: only tests call it
func Reference() int { return refHelper() }

// refHelper is live because a kept name uses it.
func refHelper() int { return 1 }

// Bare carries a keep with no reason, which is not honoured.
//
//qosvet:keep
func Bare() {} // want `//qosvet:keep on func dead\.Bare needs a reason` `func dead\.Bare is unused`

// keptButUsed carries a keep although Live calls it.
//
//qosvet:keep a stale keep: Live uses this
func keptButUsed() {} // want `stale //qosvet:keep: func dead\.keptButUsed is used`
