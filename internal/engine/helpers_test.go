package engine

// What follows only this package's tests call: no command, example or
// public API reaches it (go run ./tools/reachgate).

// Running reports whether an engine run is active.
func (e *Engine) Running() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.running
}
