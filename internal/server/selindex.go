package server

import (
	"math"
	"sort"
	"time"

	"repro/internal/bandit"
	"repro/internal/core"
)

// Cross-job selection index: the Grant-side cache that makes the pick
// path incremental. Two ideas, both keyed by a per-job dirty epoch:
//
//   - Score cache + heap. Every job carries a cached greedy gap score
//     (MaxUCB − best observed) and a monotonically increasing epoch,
//     bumped by every selection-relevant mutation — an observation landing
//     (Complete), a candidate retirement (Abandon, job failure, budget
//     drain) or any lease-set change. A max-heap over the cached gaps is
//     repaired lazily: a pick first re-scores only the jobs whose epoch
//     moved since they were last scored (O(dirty), and O(1) per job when
//     the bandit-level UCB cache is still warm), then answers the greedy
//     argmax by popping the heap instead of scanning all J jobs' posteriors.
//
//   - Persistent hallucination shadows. The GP-BUCB shadow a job's picks
//     are diversified through is kept on the job's index entry and revived
//     across Grant calls while the job's epoch is unchanged, so a batch
//     of picks pays one O(1) shadow (bandit.NewShadow's prefix-sharing
//     snapshot) instead of a deep posterior clone per call.
//
// The index serves the stock pickers through core.SelectionOracle; the
// exact greedy semantics (candidate set Vt, tie-breaks, the σ̃ mean) are
// replicated bit-for-bit — σ̃ aggregation deliberately re-folds the active
// tenants in index order rather than keeping an incremental float sum,
// because float addition order changes low bits and the selection must
// stay bit-identical to core.GreedyDecision. Everything here is guarded by
// the scheduler's coordMu.
type selectionIndex struct {
	entries []selEntry
	byID    map[string]int // job id → entry index (== tenant.ID)
	heap    []int          // entry indices, max-heap by (gap desc, index asc)
	dirty   []int          // entry indices queued for re-scoring
	stash   []int          // scratch for heap pop-and-restore
	scratch []int          // scratch for the unserved-tenant fold
	stats   SelectionStats

	// version counts selection-surface changes globally: every per-job
	// epoch bump and every job arrival advances it, and stamps the entry
	// it moved (selEntry.changed). It is the fleet protocol's change feed
	// cursor — a worker that synced at version v needs exactly the entries
	// with changed > v, and nothing at all when v is current. Never reset
	// (a restore's reset re-bumps it through ensure), so a stale worker
	// can never collide with a fresh count.
	version uint64

	// lastRepair accumulates repair time since the last takeLastRepair —
	// how pickNextLocked learns (under coordMu) whether the pick it just
	// made paid for an index repair, to mint the pick_index_repair child
	// span at the same boundary the histogram observes.
	lastRepair time.Duration
}

// selEntry is one job's slice of the index.
type selEntry struct {
	// epoch counts the job's bandit mutations (observations, retirements,
	// failures, budget drains — the events that move gap scores and
	// posterior state); scored is the epoch the cached gap reflects.
	// Lease-set changes deliberately do not bump it: the greedy gap reads
	// the real bandit, which leases never touch, and the shadow tracks
	// lease churn through its arm list below.
	epoch  uint64
	scored uint64
	queued bool
	gap    float64
	pos    int // position in heap

	// changed is the index version at which epoch last moved (or the entry
	// arrived): the change feed ships the entry to workers synced before it.
	changed uint64

	// shadow is the persistent GP-BUCB hallucination shadow for the job's
	// in-flight arms, valid while shadowEpoch == epoch (an observation
	// invalidates it wholesale). shadowArms lists the hallucinated arms in
	// application order and shadowCPs[i] is the shadow's state before
	// hallucination i, so lease churn is absorbed incrementally: newly
	// leased arms hallucinate on top (checkpointing first), and handed-back
	// leases roll the shadow back to the matching checkpoint in O(1) —
	// never a rebuild, never a re-hallucination of what is still in
	// flight.
	shadow      *bandit.GPUCB
	shadowEpoch uint64
	shadowArms  []int
	shadowCPs   []bandit.Checkpoint
}

// SelectionStats are the pick-path counters exposed through
// Scheduler.SelectionStats, GET /admin/metrics and the easeml facade.
type SelectionStats struct {
	// Picks counts pick decisions that produced a lease (both the picker
	// path and speculative grants).
	Picks uint64 `json:"picks"`
	// SpeculativeGrants counts leases granted through the fleet's
	// speculative fast path (Scheduler.SpeculativeGrant): an epoch-validated
	// worker proposal, no picker sweep.
	SpeculativeGrants uint64 `json:"speculative_grants"`
	// OraclePicks counts picks answered through the selection index
	// (heap-backed greedy); LegacyPicks counts picks by pickers without an
	// oracle path (a linear scan over the tenants).
	OraclePicks uint64 `json:"oracle_picks"`
	LegacyPicks uint64 `json:"legacy_picks"`
	// JobsRescored counts per-job gap re-scores — the work the dirty
	// epochs bound: only jobs whose epoch moved since their last scoring
	// are re-scored, not all J per pick.
	JobsRescored uint64 `json:"jobs_rescored"`
	// HeapPops counts entries popped (and restored) while answering
	// greedy argmax queries; ~1 per pick when the top of the heap is an
	// eligible candidate.
	HeapPops uint64 `json:"heap_pops"`
	// EpochBumps counts dirty-epoch advances across all jobs.
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

// reset drops every cached score and shadow (Restore rewrites every bandit).
func (ix *selectionIndex) reset() {
	ix.entries = nil
	ix.byID = nil
	ix.heap = ix.heap[:0]
	ix.dirty = ix.dirty[:0]
}

// ensure grows the index to cover the current job set. New entries enter
// the dirty queue so their first score is computed on demand.
func (ix *selectionIndex) ensure(jobs []*Job) {
	if len(ix.entries) >= len(jobs) {
		return
	}
	if ix.byID == nil {
		ix.byID = make(map[string]int, len(jobs))
	}
	ix.version++ // arrivals are changes: every synced worker hears of them
	for i := len(ix.entries); i < len(jobs); i++ {
		ix.entries = append(ix.entries, selEntry{queued: true, pos: -1, changed: ix.version})
		ix.byID[jobs[i].ID] = i
		ix.dirty = append(ix.dirty, i)
		ix.heapPush(i)
	}
}

// markDirty bumps a job's epoch and queues it for re-scoring. Callers hold
// coordMu. Unknown ids (job never picked through the index yet) are
// ignored — the entry will be created dirty by ensure.
func (ix *selectionIndex) markDirty(jobID string) {
	i, ok := ix.byID[jobID]
	if !ok {
		return
	}
	e := &ix.entries[i]
	e.epoch++
	ix.version++
	e.changed = ix.version
	ix.stats.EpochBumps++
	if !e.queued {
		e.queued = true
		ix.dirty = append(ix.dirty, i)
	}
}

// repair re-scores every queued entry and restores the heap invariant.
// tenants is the job-parallel tenant slice of the current pick; callers
// hold coordMu and every job lock. Re-scoring reads tenant.Gap(), which is
// O(1) when the bandit's own UCB cache is warm (lease-only bumps) and one
// O(K·t) posterior update when an observation landed.
func (ix *selectionIndex) repair(tenants []*core.Tenant) {
	if len(ix.dirty) == 0 {
		return
	}
	t0 := time.Now()
	defer func() {
		d := time.Since(t0)
		pickStageIndexRepair.Observe(d)
		ix.lastRepair += d
	}()
	keep := ix.dirty[:0]
	for _, i := range ix.dirty {
		if i >= len(tenants) {
			// Job published after this pick's snapshot: stay queued for a
			// pick that sees it.
			keep = append(keep, i)
			continue
		}
		e := &ix.entries[i]
		e.queued = false
		e.scored = e.epoch
		ix.stats.JobsRescored++
		if gap := tenants[i].Gap(); gap != e.gap {
			e.gap = gap
			ix.heapFix(i)
		}
	}
	ix.dirty = keep
}

// takeLastRepair returns and clears the repair time accumulated since the
// last call. Callers hold coordMu.
func (ix *selectionIndex) takeLastRepair() time.Duration {
	d := ix.lastRepair
	ix.lastRepair = 0
	return d
}

// GreedyChoice implements core.SelectionOracle for the tenants slice bound
// by oracle(): the greedy argmax served from the repaired heap.
func (ix *selectionIndex) greedyChoice(tenants []*core.Tenant) int {
	ix.repair(tenants)

	// One pass of cheap scalar reads replicating core.GreedyDecision's
	// fold exactly (same iteration order, same float accumulation order):
	// the active count, the σ̃ sum and the unserved-active set.
	nActive := 0
	var sum float64
	unserved := ix.scratch[:0]
	for i, t := range tenants {
		if !t.Active() {
			continue
		}
		nActive++
		st := t.SigmaTilde()
		if math.IsInf(st, 1) { // unserved tenant
			unserved = append(unserved, i)
			continue
		}
		sum += st
	}
	ix.scratch = unserved[:0]
	if nActive == 0 {
		return -1
	}
	if len(unserved) > 0 {
		// Initialization sweep: candidates are exactly the unserved-active
		// tenants; argmax over the gaps, lowest index wins ties.
		best, bestGap := -1, math.Inf(-1)
		for _, i := range unserved {
			if g := ix.gapOf(tenants, i); g > bestGap {
				best, bestGap = i, g
			}
		}
		return best
	}
	avg := sum / float64(nActive)

	// Heap argmax with the candidate filter (σ̃ ≥ avg): pop until the top
	// is an eligible candidate, then restore. The heap orders by
	// (gap desc, index asc), matching the linear scan's strict-> tie-break
	// of "lowest index among the max-gap candidates".
	stash := ix.stash[:0]
	choice := -1
	for len(ix.heap) > 0 {
		top := ix.heapPop()
		stash = append(stash, top)
		ix.stats.HeapPops++
		if top >= len(tenants) {
			continue
		}
		t := tenants[top]
		if t.Active() && t.SigmaTilde() >= avg {
			choice = top
			break
		}
	}
	for _, i := range stash {
		ix.heapPush(i)
	}
	ix.stash = stash[:0]
	if choice >= 0 {
		return choice
	}
	// Numerical corner (no σ̃ reaches the mean): candidates fall back to
	// the whole active set, exactly like core.GreedyDecision.
	best, bestGap := -1, math.Inf(-1)
	for i, t := range tenants {
		if !t.Active() {
			continue
		}
		if g := ix.gapOf(tenants, i); g > bestGap {
			best, bestGap = i, g
		}
	}
	return best
}

// gapOf returns the cached gap when the entry is clean, else the live
// tenant gap (bandit-cached).
func (ix *selectionIndex) gapOf(tenants []*core.Tenant, i int) float64 {
	if i < len(ix.entries) && ix.entries[i].scored == ix.entries[i].epoch && !ix.entries[i].queued {
		return ix.entries[i].gap
	}
	return tenants[i].Gap()
}

// greedyCandidates implements the oracle's candidate-set query (the hybrid
// freeze signature — once per observed round, not per pick) by delegating
// to the canonical linear implementation over cached gaps.
func (ix *selectionIndex) greedyCandidates(tenants []*core.Tenant) []int {
	ix.repair(tenants)
	_, candidates := core.GreedyDecision(tenants, func(i int) float64 { return ix.gapOf(tenants, i) })
	out := append([]int(nil), candidates...)
	sort.Ints(out)
	return out
}

// shadowFor returns the job's hallucination shadow conditioned on exactly
// the cur in-flight arms (lease-grant order): the cached shadow is revived
// when its applied arms match, rolled back to a checkpoint when leases
// were handed back, extended when new leases appeared, and rebuilt (an
// O(1) prefix-sharing bandit.NewShadow, never a deep clone) only when an
// observation landed or the lease history diverged.
func (ix *selectionIndex) shadowFor(e *selEntry, base *bandit.GPUCB, cur []int) *bandit.GPUCB {
	if e.shadow != nil && e.shadowEpoch == e.epoch {
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
	e.shadowEpoch = e.epoch
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

// oracle binds the index to one pick's tenant slice as a
// core.SelectionOracle.
func (ix *selectionIndex) oracle() core.SelectionOracle { return indexOracle{ix} }

type indexOracle struct{ ix *selectionIndex }

func (o indexOracle) GreedyChoice(tenants []*core.Tenant) int { return o.ix.greedyChoice(tenants) }
func (o indexOracle) GreedyCandidates(tenants []*core.Tenant) []int {
	return o.ix.greedyCandidates(tenants)
}

// ---------------------------------------------------------------------------
// Max-heap over entry indices, ordered by (gap desc, index asc), with
// positions tracked in the entries for O(log J) repairs.

// heapLess reports whether entry a ranks above entry b.
func (ix *selectionIndex) heapLess(a, b int) bool {
	ga, gb := ix.entries[a].gap, ix.entries[b].gap
	if ga != gb {
		return ga > gb
	}
	return a < b
}

func (ix *selectionIndex) heapPush(i int) {
	ix.entries[i].pos = len(ix.heap)
	ix.heap = append(ix.heap, i)
	ix.siftUp(len(ix.heap) - 1)
}

func (ix *selectionIndex) heapPop() int {
	top := ix.heap[0]
	last := len(ix.heap) - 1
	ix.heap[0] = ix.heap[last]
	ix.entries[ix.heap[0]].pos = 0
	ix.heap = ix.heap[:last]
	ix.entries[top].pos = -1
	if last > 0 {
		ix.siftDown(0)
	}
	return top
}

// heapFix restores the invariant after entry i's gap changed.
func (ix *selectionIndex) heapFix(i int) {
	p := ix.entries[i].pos
	if p < 0 {
		return
	}
	ix.siftUp(p)
	ix.siftDown(ix.entries[i].pos)
}

func (ix *selectionIndex) siftUp(p int) {
	for p > 0 {
		parent := (p - 1) / 2
		if !ix.heapLess(ix.heap[p], ix.heap[parent]) {
			return
		}
		ix.swap(p, parent)
		p = parent
	}
}

func (ix *selectionIndex) siftDown(p int) {
	n := len(ix.heap)
	for {
		l, r := 2*p+1, 2*p+2
		best := p
		if l < n && ix.heapLess(ix.heap[l], ix.heap[best]) {
			best = l
		}
		if r < n && ix.heapLess(ix.heap[r], ix.heap[best]) {
			best = r
		}
		if best == p {
			return
		}
		ix.swap(p, best)
		p = best
	}
}

func (ix *selectionIndex) swap(a, b int) {
	ix.heap[a], ix.heap[b] = ix.heap[b], ix.heap[a]
	ix.entries[ix.heap[a]].pos = a
	ix.entries[ix.heap[b]].pos = b
}
