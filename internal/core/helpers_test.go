package core

// What follows only this package's tests call: no command, example or
// public API reaches it (go run ./tools/reachgate).

// Inner returns the picker of one class (nil before the class's first
// pick), so callers can inspect per-class state such as HYBRID's freeze.
func (p *ClassWeightedPicker) Inner(class string) UserPicker { return p.inner[class] }

// Frozen reports whether the picker has switched to round-robin.
func (p *HybridPicker) Frozen() bool { return p.frozen }
