package fleet

// What follows only this package's tests call: no command, example or
// public API reaches it (go run ./tools/reachgate).

// Preempt runs one priority-preemption pass directly (tests, and
// operators draining best-effort load by hand); it reports whether a lease
// was preempted. The lease-poll path runs the same pass automatically
// whenever the in-flight cap is saturated.
func (c *Coordinator) Preempt() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.preemptedTotal.Load()
	c.preemptLocked()
	return c.preemptedTotal.Load() > before
}
