package core

// What follows only this package's tests call: no command, example or
// public API reaches it (go run ./tools/reachgate).

// Inner returns the picker of one class (nil before a pick first sees the
// class), so callers can inspect per-class state such as HYBRID's freeze.
func (p *ClassWeightedPicker) Inner(class string) UserPicker {
	for _, c := range p.classes {
		if c.key == class {
			return c.inner
		}
	}
	return nil
}

// Frozen reports whether the picker has switched to round-robin.
func (p *HybridPicker) Frozen() bool { return p.frozen }
