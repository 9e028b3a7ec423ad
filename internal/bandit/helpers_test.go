package bandit

// What follows only this package's tests call: no command, example or
// public API reaches it (go run ./tools/reachgate).

// SelectBatch picks up to batchSize distinct untried arms for parallel
// execution on multiple devices — the §6 future-work direction ("parallel
// Gaussian Process in which multiple processes are being evaluated …
// extend ease.ml's resource model from a single device to multiple
// devices").
//
// It follows the GP-BUCB hallucination scheme (Desautels et al., cited by
// the paper): after choosing an arm, the posterior is conditioned on a fake
// observation equal to the current posterior mean. The mean is unchanged
// but the variance collapses, so subsequent picks diversify instead of
// piling onto near-duplicates of the first choice. The bandit's real state
// is untouched; callers Observe the true rewards when the parallel runs
// finish.
func (b *GPUCB) SelectBatch(batchSize int) []int {
	if batchSize <= 0 {
		return nil
	}
	remaining := b.NumArms() - b.NumTried()
	if remaining == 0 {
		return nil
	}
	if batchSize > remaining {
		batchSize = remaining
	}
	if batchSize == 1 {
		arm, _ := b.SelectArm()
		return []int{arm}
	}

	shadow := b.NewShadow(nil)
	var batch []int
	for len(batch) < batchSize {
		arm, _ := shadow.SelectArm()
		if arm < 0 {
			break
		}
		batch = append(batch, arm)
		// Observing the posterior mean keeps the mean surface intact while
		// collapsing the arm's variance.
		shadow.Hallucinate(arm)
	}
	return batch
}

// Step returns the local time step t (number of selections made).
func (b *GPUCB) Step() int { return b.t }
