package gp

// What follows only this package's tests call: no command, example or
// public API reaches it (go run ./tools/reachgate).

// PriorVar returns the prior variance Σ(k,k) of arm k.
func (g *GP) PriorVar(k int) float64 { return g.prior.At(k, k) }

// Observations returns copies of the observed arm indices and rewards.
func (g *GP) Observations() (arms []int, ys []float64) {
	arms = make([]int, len(g.arms))
	copy(arms, g.arms)
	ys = make([]float64, len(g.ys))
	copy(ys, g.ys)
	return arms, ys
}

// Reset discards all observations, returning the process to its prior.
// The history slices are dropped, not truncated: a Shadow may still be
// reading the old backing arrays, and re-appending into them would leak
// the new history into the shadow's clamped view.
func (g *GP) Reset() {
	g.arms = nil
	g.ys = nil
	g.chol = nil
	g.w = nil
	g.jitter = 0
	g.invalidatePosterior()
	g.postMu = nil
	g.postRaw = nil
	g.postZ = nil
	g.muKept = false
}
