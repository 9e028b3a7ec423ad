package server

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Exported posterior surfaces and epoch-validated grants: the scheduler
// exports each job's cached UCB surface tagged with its selection-index
// epoch, and can lease a (job, arm, epoch) triple scored against that
// surface without running the user picker. No service path calls either:
// every fleet grant goes through Grant, so class weights and σ̃ fair sharing
// decide every lease. Both stay only for the benchmark harness's
// micro-benchmarks, and go when it is ported.

// PosteriorDelta is one job's selection surface: the real (unhallucinated)
// UCB per arm, stamped with the job's selection-index epoch. Tried lists
// arms that are observed or retired (their UCB entries are zeroed, so the
// delta encodes as JSON, which cannot carry the NaN markers UCBSurface
// uses); Leased lists arms currently held by outstanding leases. Only arms
// in neither list can be granted. Done marks a job that will never train another candidate (drained, failed
// or budget-exhausted) — its slices are omitted.
//
// Deprecated: nothing in the service reads it; it stays for the benchmark
// harness until that is ported to Grant.
type PosteriorDelta struct {
	JobID  string    `json:"job_id"`
	Epoch  uint64    `json:"epoch"`
	UCB    []float64 `json:"ucb,omitempty"`
	Tried  []int     `json:"tried,omitempty"`
	Leased []int     `json:"leased,omitempty"`
	Done   bool      `json:"done,omitempty"`
}

// PosteriorDeltas exports the posterior surface of every job whose
// epoch differs from the caller's known map (job id → last seen epoch; jobs
// absent from the map are always sent). Each delta's epoch and surface are
// read under coordMu and the job lock together, so it is internally
// consistent: a caller holding epoch E can ask SpeculativeGrant for any
// untried, unleased arm and the grant validates iff the job's bandit has not
// moved since E.
//
// Deprecated: nothing in the service calls it; it stays for the benchmark
// harness until that is ported to Grant.
func (sc *Scheduler) PosteriorDeltas(known map[string]uint64) []PosteriorDelta {
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	var out []PosteriorDelta
	for i := range sc.selIdx.entries {
		e := &sc.selIdx.entries[i]
		if v, ok := known[e.job.ID]; !ok || v != e.epoch {
			out = append(out, sc.posteriorDeltaLocked(i))
		}
	}
	return out
}

// posteriorDeltaLocked builds job i's delta. Callers hold coordMu
// (epoch, lease list); the job lock is taken here so the surface is
// consistent with the epoch — a bandit that has moved past its view (a
// settle between its observation and its publish) is published first, so
// the delta never pairs a new surface with an old epoch.
func (sc *Scheduler) posteriorDeltaLocked(i int) PosteriorDelta {
	e := &sc.selIdx.entries[i]
	job := e.job
	job.mu.Lock()
	defer job.mu.Unlock()
	sc.refreshLocked(i)
	d := PosteriorDelta{JobID: job.ID, Epoch: e.epoch}
	b := job.tenant.Bandit
	if job.failed != "" || job.budgetExhausted || b.Exhausted() {
		d.Done = true
		return d
	}
	if len(e.leased) > 0 {
		d.Leased = slices.Sorted(slices.Values(e.leased))
	}
	d.UCB = b.UCBSurface() // a fresh copy: safe to edit and hand to the encoder
	for k, v := range d.UCB {
		if math.IsNaN(v) { // tried or retired
			d.Tried = append(d.Tried, k)
			d.UCB[k] = 0
		}
	}
	return d
}

// SpeculativeGrant validates one (job, arm, epoch) proposal and, when it
// holds, leases (jobID, arm) without running the pick path: the only checks are the epoch
// comparison, the job's in-flight arm list (an epoch match says nothing
// about the lease set — lease churn deliberately does not bump epochs), the
// job's own terminal flags and that its bandit has not moved past the
// published epoch, and the only bandit work is the hallucination update on
// the job's persistent shadow. It returns (nil, nil) when the
// proposal is stale — wrong epoch, arm already leased/tried, job done —
// which callers treat as "fall back to the normal pick path". Malformed
// proposals (unknown arm index) are an error.
//
// The fast path skips the cross-job picker, so it is blind to class weights
// and σ̃ fair sharing.
//
// Deprecated: nothing in the service calls it — every fleet grant goes
// through Grant. It stays for the benchmark harness until that is ported.
func (sc *Scheduler) SpeculativeGrant(jobID string, arm int, epoch uint64) (*Lease, error) {
	job, ok := sc.Job(jobID)
	if !ok {
		return nil, nil // e.g. a proposal that outlived a coordinator restart
	}
	if arm < 0 || arm >= len(job.Candidates) {
		return nil, fmt.Errorf("server: speculative proposal for %s: arm %d out of range [0,%d)", jobID, arm, len(job.Candidates))
	}
	t0 := time.Now()
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	i := job.tenant.ID // a job visible through sc.Job has its entry (see add)
	entry := &sc.selIdx.entries[i]
	if entry.epoch != epoch || slices.Contains(entry.leased, arm) {
		return nil, nil
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	// A bandit ahead of its view was scored by the worker on a surface that
	// no longer exists; publishing it moves the epoch, so the worker resyncs.
	if sc.refreshLocked(i) || job.failed != "" || job.budgetExhausted || job.tenant.Bandit.Tried(arm) {
		return nil, nil
	}
	// The job's in-flight arms in lease-grant order — the same list the pick
	// path hallucinates, so the shadow extended here is bit-identical to the
	// one the next Grant would have built.
	cur := entry.leased
	// The lease's UCB (fed into the σ̃ recurrence at settle) prices the arm
	// on the same hallucinated posterior the pick path would have used.
	var ucb float64
	var hallStart time.Time
	var hallDur time.Duration
	if len(cur) == 0 {
		ucb = job.tenant.Bandit.UCB(arm)
	} else {
		hallStart = time.Now()
		shadow := sc.selIdx.shadowFor(entry, job.tenant.Bandit, cur)
		ucb = shadow.UCB(arm)
		sc.selIdx.hallucinate(entry, []int{arm})
		hallDur = time.Since(hallStart)
		pickStageHallucinate.Observe(hallDur)
	}
	l := sc.newLeaseLocked(job, arm, ucb)
	sc.emitGrantProvenance(l, job, true, 0, t0, hallStart, hallDur)
	sc.addLeaseLocked(l)
	sc.selIdx.stats.Picks++
	sc.selIdx.stats.SpeculativeGrants++
	return l, nil
}
