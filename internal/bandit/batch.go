package bandit

import "repro/internal/gp"

// NewShadow returns a hallucination shadow of the bandit: a copy
// conditioned on fake posterior-mean observations for every in-flight arm
// (arms leased to engine workers whose results have not come back yet).
// SelectArm on the shadow is then the GP-BUCB pick given the in-flight set;
// the real bandit's state is untouched. Callers that lease several arms in
// a row (server.Scheduler.PickWork) keep one shadow and Hallucinate each
// pick on it incrementally — one shadow per batch instead of one per pick.
// Conditioning on the posterior mean leaves the mean surface intact, so the
// shadow's state is independent of hallucination order.
//
// Creation is O(1) in the observation count: the shadow shares the real
// posterior's Cholesky factor and history through gp.Shadow's prefix-
// sharing snapshot, paying only for the hallucinated extensions — never
// the O(t²) factor copy plus O(t³) refactorization of a deep clone. The
// base bandit observing later copy-on-writes away from the shadow, so a
// stale shadow is safe to read (and discard). CloneShadow is the deep-copy
// reference implementation the equivalence tests compare against.
func (b *GPUCB) NewShadow(inFlight []int) *GPUCB {
	shadow := b.shadowOver(b.gp.Shadow())
	for _, a := range inFlight {
		shadow.Hallucinate(a)
	}
	return shadow
}

// CloneShadow is the deep-clone reference implementation of NewShadow: the
// posterior is rebuilt from the history — factor refactorized, solved block
// and surface accumulated from row 0 — instead of prefix-shared. It exists
// as the baseline the shadow- and rebuild-equivalence tests and the
// server's reference picker (reference_test.go) compare NewShadow against;
// no product path selects with it.
func (b *GPUCB) CloneShadow(inFlight []int) *GPUCB {
	shadow := b.shadowOver(b.gp.Clone())
	for _, a := range inFlight {
		shadow.Hallucinate(a)
	}
	return shadow
}

// Hallucinate conditions the bandit on a fake observation of arm a at its
// current posterior mean (no-op for invalid or already-tried arms). Only
// ever call this on a shadow from NewShadow/CloneShadow — it consumes the
// arm like a real observation. The posterior update goes through
// gp.ObserveHallucinated: hallucinating the mean leaves the mean surface
// untouched, so only the variances change, by the one O(K·t) block row a
// real observation costs too — this is what keeps per-arm UCB scores
// incremental across a batch of picks.
func (b *GPUCB) Hallucinate(a int) {
	if a < 0 || a >= b.NumArms() || b.Tried(a) {
		return
	}
	y := b.Mean(a)
	// A failed fake observation leaves the shadow's variance for the
	// arm uncollapsed — the next pick may duplicate, which is benign;
	// real observations surface the error through the real bandit.
	if err := b.gp.ObserveHallucinated(a); err != nil {
		return
	}
	// Mirror Observe's bookkeeping: the arm is consumed, the local clock
	// advances, its cost is paid, and the selection cache dirties.
	if b.tried == nil {
		b.tried = make([]bool, b.NumArms())
	}
	b.tried[a] = true
	b.nTried++
	b.t++
	b.invalidateCache()
	b.cumCost += b.cfg.Costs[a]
	if !b.haveObs || y > b.bestY {
		b.bestY = y
		b.bestArm = a
		b.haveObs = true
	}
}

// Checkpoint captures a bandit's state in O(1) for Rollback — taken on a
// hallucination shadow before each fake observation, so leased work that
// is handed back (released, expired, preempted) rolls the shadow back
// instead of forcing a rebuild plus re-hallucination of everything still
// in flight.
type Checkpoint struct {
	gp      gp.Checkpoint
	t       int
	nTried  int
	cumCost float64
	bestArm int
	bestY   float64
	haveObs bool
}

// Checkpoint captures the current state; see the type's documentation.
func (b *GPUCB) Checkpoint() Checkpoint {
	return Checkpoint{
		gp:      b.gp.Checkpoint(),
		t:       b.t,
		nTried:  b.nTried,
		cumCost: b.cumCost,
		bestArm: b.bestArm,
		bestY:   b.bestY,
		haveObs: b.haveObs,
	}
}

// Rollback restores the state captured by cp, un-trying every arm
// observed or hallucinated since. Only ever call it on a shadow, with a
// checkpoint taken from the same shadow; checkpoints taken after cp
// become invalid.
func (b *GPUCB) Rollback(cp Checkpoint) {
	for i := cp.gp.Obs(); i < b.gp.NumObservations(); i++ {
		b.tried[b.gp.ObservedArm(i)] = false
	}
	b.gp.Rollback(cp.gp)
	b.t = cp.t
	b.nTried = cp.nTried
	b.cumCost = cp.cumCost
	b.bestArm = cp.bestArm
	b.bestY = cp.bestY
	b.haveObs = cp.haveObs
	b.invalidateCache()
}

// shadowOver wraps a (shared or cloned) posterior process in a copy of the
// bandit's decision state. The config is shared — Costs and ArmMeans are
// immutable after New — while the tried set is copied (the shadow consumes
// arms). The constructor's validation is skipped: the state was validated
// when the base was built.
func (b *GPUCB) shadowOver(process *gp.GP) *GPUCB {
	clone := &GPUCB{
		gp:      process,
		cfg:     b.cfg,
		t:       b.t,
		nTried:  b.nTried,
		bestArm: b.bestArm,
		bestY:   b.bestY,
		haveObs: b.haveObs,
	}
	if b.tried != nil {
		clone.tried = append([]bool(nil), b.tried...)
	}
	return clone
}
