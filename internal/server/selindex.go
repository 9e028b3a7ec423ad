package server

import (
	"math"
	"slices"

	"repro/internal/bandit"
	"repro/internal/core"
)

// Cross-job selection index: the copy of the tenants' scheduling state that
// Grant picks on, laid out for the reader. A pick takes coordMu and the
// chosen job's lock — never the other jobs' — because everything a user
// picker reads is here, kept current by the writers.
//
//   - Views. Everything a picker reads of a tenant is six scalars (open and
//     tried arms, σ̃, gap, best observed, leased count). Whoever moves a
//     job's bandit computes them under that job's lock — so the posterior
//     refresh behind the gap runs in the settling worker, not in the
//     picker's critical section — and publishes them here inside the coordMu
//     section the move already takes. Pickers are handed views: bandit-less
//     core.Tenants that answer from the published scalars.
//
//   - Lease lists. Each entry holds its job's in-flight arms in grant
//     order — the order the job's shadow hallucinated them in — maintained
//     by Scheduler.addLeaseLocked / dropLeaseLocked, the only two places
//     that touch the lease table. Nothing on the pick path scans that table.
//
//   - Class partition. A job's class is fixed at submission, so the index
//     keeps per class the member views in index order, a dense copy of the
//     scalars a pick reads (σ̃, gap, best observed, active), a max-heap over
//     the gaps, a count of active members and the total of their tried
//     arms. The class-weighted picker gets its opening scan and its
//     restriction in O(classes) (core.ClassOracle), and the greedy argmax
//     folds σ̃ over, and pops the heap of, the chosen class only.
//
//   - Persistent hallucination shadows. The GP-BUCB shadow a job's picks
//     are diversified through is kept on the job's entry and revived across
//     Grant calls while the job's epoch is unchanged, so a batch of picks
//     pays one O(1) shadow (bandit.NewShadow's prefix-sharing snapshot)
//     instead of a deep posterior clone per call.
//
// What stays linear in one class's size, and why: one pass per pick over
// the dense columns yields the σ̃ sum and the unserved set in index order
// (the active count is kept) and HYBRID's best-observed total, and
// GreedyChoice, GreedyCandidates and the freeze check share it. The sums
// are re-folded rather than kept running because float addition order
// changes low bits and the selection must stay bit-identical to
// core.GreedyDecision and HYBRID's own pass; the tried total is a counter
// kept at publish (integers add exactly). Once per observed round, the
// candidate set filters the σ̃ column against the mean. All are reads of
// contiguous scalars — no lock, no hash, no allocation.
//
// Two rules keep a view honest without locking its job. A publish whose
// Tried count is not ahead of the view's is dropped: Tried only grows, and a
// budget drain and a settle of one job can reach coordMu out of bandit
// order. And a pick that locks its chosen job and finds the bandit ahead of
// the view (a settle has observed but not yet reached coordMu) publishes
// the live scalars itself and picks again (refreshLocked). Everything here
// is guarded by the scheduler's coordMu.
type selectionIndex struct {
	entries []selEntry     // index order: entries[i] is sc.jobs[i], i == job.tenant.ID
	views   []*core.Tenant // views[i] is entries[i]'s view: the slice pickers see
	classes []*selClass    // arrival order
	byClass map[string]*selClass
	firsts  []int // scratch for ActiveClasses: first active member per share
	stats   SelectionStats
}

// selEntry is one job's slice of the index.
type selEntry struct {
	job   *Job
	class *selClass
	local int // position among the class's members

	// epoch counts the job's published bandit moves (observations,
	// retirements, failures, budget drains — the events that move gap
	// scores and posterior state). Lease-set changes deliberately do not
	// bump it: the gap reads the real bandit, which leases never touch, and
	// the shadow tracks lease churn through its arm list below.
	epoch uint64

	// leased lists the job's in-flight arms in grant order (settling leases
	// included: their arms stay excluded until the observation lands).
	leased []int

	// shadow is the persistent GP-BUCB hallucination shadow for the job's
	// in-flight arms, built at the current epoch (publish drops it: an
	// observation invalidates it wholesale). shadowArms lists the hallucinated arms in
	// application order and shadowCPs[i] is the shadow's state before
	// hallucination i, so lease churn is absorbed incrementally: newly
	// leased arms hallucinate on top (checkpointing first), and handed-back
	// leases roll the shadow back to the matching checkpoint in O(1) —
	// never a rebuild, never a re-hallucination of what is still in
	// flight.
	shadow     *bandit.GPUCB
	shadowArms []int
	shadowCPs  []bandit.Checkpoint
}

// selClass is one class's partition of the index, and the
// core.FreezeOracle over exactly its members: every index it takes or
// returns is a position in views.
type selClass struct {
	key     string
	weight  float64        // the members' fair-share weight (one per class, see add)
	members []int          // entry indices, ascending
	views   []*core.Tenant // the members' views, same order
	heap    []int          // member positions, max-heap by (gap desc, position asc)
	pos     []int          // pos[k] is member k's position in heap
	active  int            // members whose view is Active
	tried   int            // the members' tried arms in total
	drained int            // members before this position have no open arm, for good
	stats   *SelectionStats

	// The members' pick scalars, copied from their views by set: what a
	// pick's passes read, contiguous.
	sig  []float64 // σ̃
	gap  []float64
	best []float64 // best observed
	act  []bool    // Active

	// The pick's fold (see fold), valid until a member's scalars change.
	folded   bool
	sum      float64 // σ̃ over the served active members, in index order
	bestSum  float64 // best observed over every member, in index order
	unserved []int   // the unserved active members

	walk  []int // scratch for GreedyChoice's heap walk
	cands []int // scratch for GreedyCandidates
}

// SelectionStats are the pick-path counters exposed through
// Scheduler.SelectionStats, the easeml_selection_events_total and
// easeml_bandit_cache_events_total families of GET /metrics and the easeml
// facade.
type SelectionStats struct {
	// Picks counts pick decisions that produced a lease (both the picker
	// path and speculative grants).
	Picks uint64 `json:"picks"`
	// SpeculativeGrants counts leases granted by the deprecated
	// Scheduler.SpeculativeGrant (an epoch-validated proposal, no picker
	// sweep); no service path calls it, so it stays 0 in a running service.
	SpeculativeGrants uint64 `json:"speculative_grants"`
	// JobsRescored counts per-job score publications — one when a job
	// arrives and one per bandit move, never one per job per pick.
	JobsRescored uint64 `json:"jobs_rescored"`
	// StalePicks counts user picks redone because the chosen job's bandit
	// was ahead of its view (a settle had observed but not yet published).
	StalePicks uint64 `json:"stale_picks"`
	// HeapPops counts heap members examined while answering greedy argmax
	// queries; 1 per pick when the top of the heap is an eligible
	// candidate.
	HeapPops uint64 `json:"heap_pops"`
	// EpochBumps counts epoch advances across all jobs.
	EpochBumps uint64 `json:"epoch_bumps"`
	// ShadowsBuilt / ShadowsReused count hallucination shadows created
	// versus revived across picks; ShadowRollbacks counts reuses that
	// rolled back to a checkpoint because in-flight work was handed back.
	ShadowsBuilt    uint64 `json:"shadows_built"`
	ShadowsReused   uint64 `json:"shadows_reused"`
	ShadowRollbacks uint64 `json:"shadow_rollbacks"`
	// BanditCache aggregates the per-job bandit selection/posterior cache
	// counters (filled by Scheduler.SelectionStats, not the index).
	BanditCache bandit.Stats `json:"bandit_cache"`
}

// add appends the entry of a newly published job, scored s. Callers hold
// jobsMu (write) and coordMu, so entries stay parallel to sc.jobs.
func (ix *selectionIndex) add(job *Job, s core.Scalars) {
	if ix.byClass == nil {
		ix.byClass = make(map[string]*selClass)
	}
	key := string(job.Class)
	c := ix.byClass[key]
	if c == nil {
		c = &selClass{key: key, stats: &ix.stats}
		ix.byClass[key] = c
		ix.classes = append(ix.classes, c)
	}
	// buildJob gives every tenant its class's weight, so the largest weight
	// among a class's *active* members — what core.ClassOracle asks for —
	// is this one number.
	c.weight = max(c.weight, job.Class.Weight())
	i := len(ix.entries)
	view := core.NewTenantView(i, job.ID, s)
	ix.entries = append(ix.entries, selEntry{job: job, class: c, local: len(c.views)})
	ix.views = append(ix.views, view)
	ix.stats.JobsRescored++
	c.members = append(c.members, i)
	c.views = append(c.views, view)
	c.sig, c.gap, c.best, c.act = append(c.sig, 0), append(c.gap, 0), append(c.best, 0), append(c.act, false)
	c.tried += s.Tried
	c.set(len(c.views) - 1)
	c.pos = append(c.pos, 0)
	c.heapPush(len(c.views) - 1)
}

// publish stores job i's scalars as read under its lock, bumps its epoch
// and fixes its class heap — unless the view already holds them or newer
// ones (Tried only grows), which it reports as false.
func (ix *selectionIndex) publish(i int, s core.Scalars) bool {
	if s.Tried <= ix.views[i].NumTried() {
		return false
	}
	e := &ix.entries[i]
	e.class.tried += s.Tried - ix.views[i].NumTried()
	ix.views[i].Publish(s)
	e.class.set(e.local)
	e.class.fix(e.local)
	e.epoch++
	// The shadow hallucinated over the old epoch's posterior and can never
	// be revived: shadowFor builds a new one at the next pick. Drop it now,
	// so a finished job does not keep it alive; the slices keep their
	// capacity for the next shadow.
	e.shadow = nil
	clear(e.shadowCPs[:cap(e.shadowCPs)])
	e.shadowCPs = e.shadowCPs[:0]
	e.shadowArms = e.shadowArms[:0]
	ix.stats.EpochBumps++
	ix.stats.JobsRescored++
	return true
}

// set copies member k's scalars from its view after the view moved, and
// keeps the class's active count.
func (c *selClass) set(k int) {
	v, was := c.views[k], c.act[k]
	c.sig[k], c.gap[k], c.best[k], c.act[k] = v.SigmaTilde(), v.Gap(), v.BestObserved(), v.Active()
	if c.act[k] && !was {
		c.active++
	} else if was && !c.act[k] {
		c.active--
	}
	c.folded = false
}

// setLeased replaces entry i's in-flight arm list (grant order) and the
// leased count its view reports; see Scheduler.addLeaseLocked.
func (ix *selectionIndex) setLeased(i int, arms []int) {
	e := &ix.entries[i]
	e.leased = arms
	ix.views[i].SetLeased(len(arms))
	e.class.set(e.local)
}

// anyActive reports whether any job has an untried, unleased arm.
func (ix *selectionIndex) anyActive() bool {
	for _, c := range ix.classes {
		if c.active > 0 {
			return true
		}
	}
	return false
}

// ActiveClasses implements core.ClassOracle in O(classes): the classes with
// an active member, ordered by their lowest-indexed one.
func (ix *selectionIndex) ActiveClasses(dst []core.ClassShare) []core.ClassShare {
	firsts := ix.firsts[:0]
	for _, c := range ix.classes {
		if c.active == 0 {
			continue
		}
		first := c.members[c.firstActive()]
		at := len(dst)
		for at > 0 && firsts[at-1] > first {
			at--
		}
		dst = slices.Insert(dst, at, core.ClassShare{Class: c.key, Weight: c.weight})
		firsts = slices.Insert(firsts, at, first)
	}
	ix.firsts = firsts
	return dst
}

// ClassMembers implements core.ClassOracle.
func (ix *selectionIndex) ClassMembers(class string) ([]*core.Tenant, []int, core.SelectionOracle) {
	c := ix.byClass[class]
	return c.views, c.members, c
}

// firstActive returns the position of the class's lowest-indexed active
// member; callers checked active > 0. Open only falls, so members found
// drained stay skipped and the scan is amortised O(1) — it walks further
// only past members whose open arms are all leased out.
func (c *selClass) firstActive() int {
	for c.views[c.drained].Open() == 0 {
		c.drained++
	}
	k := c.drained
	for !c.act[k] {
		k++
	}
	return k
}

// fold is core.GreedyDecision's pass over the class, replicated exactly
// (index order, the same float accumulation): the σ̃ sum of the served
// active members and the unserved active ones, and in the same pass
// HYBRID's best-observed total over every member. The active count is kept
// (set), so the pass reads three dense columns. GreedyChoice,
// GreedyCandidates and BestObservedSum of one pick share it; a change to
// any member's scalars voids it.
func (c *selClass) fold() {
	if c.folded {
		return
	}
	c.sum, c.bestSum, c.unserved = 0, 0, c.unserved[:0]
	for k, a := range c.act {
		c.bestSum += c.best[k]
		if !a {
			continue
		}
		if st := c.sig[k]; math.IsInf(st, 1) {
			c.unserved = append(c.unserved, k)
		} else {
			c.sum += st
		}
	}
	c.folded = true
}

// argmax returns the member of ks with the largest gap, lowest position
// winning ties.
func (c *selClass) argmax(ks []int) int {
	best, bestGap := -1, math.Inf(-1)
	for _, k := range ks {
		if g := c.gap[k]; g > bestGap {
			best, bestGap = k, g
		}
	}
	return best
}

// candidates lists the active members whose σ̃ reaches avg (all active
// members when none does) into the cands scratch.
func (c *selClass) candidates(avg float64) []int {
	c.cands = c.cands[:0]
	for k, a := range c.act {
		if a && c.sig[k] >= avg {
			c.cands = append(c.cands, k)
		}
	}
	if len(c.cands) > 0 {
		return c.cands
	}
	// Numerical corner (no σ̃ reaches the mean): candidates fall back to
	// the whole active set, exactly like core.GreedyDecision.
	for k, a := range c.act {
		if a {
			c.cands = append(c.cands, k)
		}
	}
	return c.cands
}

// GreedyChoice implements core.SelectionOracle for the class's views: the
// greedy argmax served from the heap.
func (c *selClass) GreedyChoice([]*core.Tenant) int {
	if c.active == 0 {
		return -1
	}
	c.fold()
	if len(c.unserved) > 0 {
		// Initialization sweep: candidates are exactly the unserved-active
		// tenants.
		return c.argmax(c.unserved)
	}
	avg := c.sum / float64(c.active)

	// Heap argmax with the candidate filter (σ̃ ≥ avg), without touching the
	// heap: walk it from the root, never below a member that is eligible
	// (its subtree ranks lower) or that ranks below the best eligible one
	// found so far. That visits the ineligible members ranking above the
	// winner and their children — about one member per pick when the top is
	// eligible. The heap orders by (gap desc, position asc), matching the
	// linear scan's strict-> tie-break of "lowest index among the max-gap
	// candidates".
	choice := -1
	walk := append(c.walk[:0], 0)
	for len(walk) > 0 {
		p := walk[len(walk)-1]
		walk = walk[:len(walk)-1]
		k := c.heap[p]
		c.stats.HeapPops++
		if choice >= 0 && !c.less(k, choice) {
			continue
		}
		if c.act[k] && c.sig[k] >= avg {
			choice = k
			continue
		}
		if l := 2*p + 1; l+1 < len(c.heap) {
			walk = append(walk, l, l+1)
		} else if l < len(c.heap) {
			walk = append(walk, l)
		}
	}
	c.walk = walk
	if choice >= 0 {
		return choice
	}
	return c.argmax(c.candidates(avg)) // every active member: none reaches avg
}

// GreedyCandidates implements core.SelectionOracle: the candidate set Vt of
// the class as ascending positions, in scratch space (valid until the next
// call). It is the hybrid freeze signature — asked once per observed round,
// not per pick — and reuses the pick's fold.
func (c *selClass) GreedyCandidates([]*core.Tenant) []int {
	if c.active == 0 {
		return nil
	}
	c.fold()
	if len(c.unserved) > 0 {
		return c.unserved
	}
	return c.candidates(c.sum / float64(c.active))
}

// TriedTotal implements core.FreezeOracle: the counter publish keeps.
func (c *selClass) TriedTotal() int { return c.tried }

// BestObservedSum implements core.FreezeOracle: the pick's fold sums it in
// index order, like HYBRID's own pass.
func (c *selClass) BestObservedSum() float64 {
	c.fold()
	return c.bestSum
}

// shadowFor returns the job's hallucination shadow conditioned on exactly
// the cur in-flight arms (lease-grant order): the cached shadow is revived
// when its applied arms match, rolled back to a checkpoint when leases
// were handed back, extended when new leases appeared, and rebuilt (an
// O(1) prefix-sharing bandit.NewShadow, never a deep clone) only when an
// observation landed or the lease history diverged.
func (ix *selectionIndex) shadowFor(e *selEntry, base *bandit.GPUCB, cur []int) *bandit.GPUCB {
	if e.shadow != nil {
		n := len(e.shadowArms)
		switch {
		case len(cur) <= n && intPrefix(cur, e.shadowArms):
			if len(cur) < n {
				e.shadow.Rollback(e.shadowCPs[len(cur)])
				e.shadowArms = e.shadowArms[:len(cur)]
				e.shadowCPs = e.shadowCPs[:len(cur)]
				ix.stats.ShadowRollbacks++
			}
			ix.stats.ShadowsReused++
			return e.shadow
		case intPrefix(e.shadowArms, cur):
			if ix.hallucinate(e, cur[n:]) {
				ix.stats.ShadowsReused++
				return e.shadow
			}
		}
	}
	e.shadow = base.NewShadow(nil)
	e.shadowArms = e.shadowArms[:0]
	e.shadowCPs = e.shadowCPs[:0]
	ix.stats.ShadowsBuilt++
	ix.hallucinate(e, cur)
	return e.shadow
}

// hallucinate applies arms to the entry's shadow, checkpointing before
// each so releases can roll back. A failed fake observation (numerically
// semi-definite extension) is skipped like bandit.NewShadow skips it —
// the arm's variance stays uncollapsed, which is benign — but it is left
// out of shadowArms, so the prefix match stops reviving this shadow and
// every subsequent pick rebuilds; ok reports whether all arms applied.
func (ix *selectionIndex) hallucinate(e *selEntry, arms []int) bool {
	ok := true
	for _, a := range arms {
		cp := e.shadow.Checkpoint()
		e.shadow.Hallucinate(a)
		if !e.shadow.Tried(a) {
			ok = false
			continue
		}
		e.shadowArms = append(e.shadowArms, a)
		e.shadowCPs = append(e.shadowCPs, cp)
	}
	return ok
}

// intPrefix reports whether p is a prefix of s.
func intPrefix(p, s []int) bool {
	if len(p) > len(s) {
		return false
	}
	for i, v := range p {
		if s[i] != v {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Per-class max-heap over member positions, ordered by (gap desc, position
// asc), with heap positions tracked in pos for O(log n) fixes.

// less reports whether member a ranks above member b.
func (c *selClass) less(a, b int) bool {
	ga, gb := c.gap[a], c.gap[b]
	if ga != gb {
		return ga > gb
	}
	return a < b
}

func (c *selClass) heapPush(k int) {
	c.pos[k] = len(c.heap)
	c.heap = append(c.heap, k)
	c.siftUp(len(c.heap) - 1)
}

// fix restores the invariant after member k's gap changed.
func (c *selClass) fix(k int) {
	c.siftUp(c.pos[k])
	c.siftDown(c.pos[k])
}

func (c *selClass) siftUp(p int) {
	for p > 0 {
		parent := (p - 1) / 2
		if !c.less(c.heap[p], c.heap[parent]) {
			return
		}
		c.swap(p, parent)
		p = parent
	}
}

func (c *selClass) siftDown(p int) {
	n := len(c.heap)
	for {
		l, r := 2*p+1, 2*p+2
		best := p
		if l < n && c.less(c.heap[l], c.heap[best]) {
			best = l
		}
		if r < n && c.less(c.heap[r], c.heap[best]) {
			best = r
		}
		if best == p {
			return
		}
		c.swap(p, best)
		p = best
	}
}

func (c *selClass) swap(a, b int) {
	c.heap[a], c.heap[b] = c.heap[b], c.heap[a]
	c.pos[c.heap[a]] = a
	c.pos[c.heap[b]] = b
}
