package fleet

import "time"

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

// setClock replaces the coordinator's clock — lease deadlines, expiry and
// the registry — so tests drive expiry deterministically instead of
// sleeping. Call it before serving traffic.
func (c *Coordinator) setClock(now func() time.Time) { c.now = now }
