package server

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/telemetry"
)

// Fleet-side posterior scoring: the scheduler exports each job's cached UCB
// surface tagged with its selection-index epoch, and accepts
// speculative lease grants for (job, arm, epoch) proposals that workers
// pre-scored locally against that surface. Validation is one epoch
// comparison, a look at the job's own in-flight arm list (kept on its index
// entry — the lease table is never scanned) and the job's own flags — no
// user pick, no σ̃ fold, no heap traffic — so the steady-state pick cost
// moves from the coordinator to the fleet's edges (ROADMAP direction 3).
//
// Correctness note: a speculative grant changes which arm runs next, never
// what its result is. Training results are pure functions of (job,
// candidate) and a full drain trains every candidate exactly once, so final
// models are bit-identical to a speculation-off run; only completion order
// (round numbering) may differ. The equivalence suite in internal/fleet
// asserts exactly that.

// opPickSpeculative is the selection-stage span of a speculatively granted
// lease — it replaces opPickSelect in the lease's span tree, so traces make
// the grant path explicit.
var opPickSpeculative = telemetry.SpanOp("pick_speculative")

// PosteriorDelta is one job's selection surface as shipped to fleet workers
// (it is the wire type: fleet.JobPosterior aliases it): the real
// (unhallucinated) UCB per arm — all a worker ranks on — stamped with the
// job's selection-index epoch. Tried lists arms that are observed or
// retired (their UCB entries are zeroed — the wire format is JSON, which
// cannot carry the NaN markers UCBSurface uses); Leased lists arms currently
// held by outstanding leases. Workers propose only arms in neither list.
// Done marks a job that will never train another candidate (drained, failed
// or budget-exhausted) — its slices are omitted.
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
// absent from the map are always sent).
func (sc *Scheduler) PosteriorDeltas(known map[string]uint64) []PosteriorDelta {
	out, _ := sc.posteriorDeltas(func(id string, e *selEntry) bool {
		v, ok := known[id]
		return !ok || v != e.epoch
	})
	return out
}

// PosteriorsSince is the fleet's change feed: the surface of every job whose
// epoch moved (or that arrived) after index version since, plus the version
// the answer is current at — the cursor for the caller's next call. Nothing
// is returned at the current version, everything at 0. Both are read in one
// critical section, so a caller that applies the deltas holds exactly the
// state of the returned version.
func (sc *Scheduler) PosteriorsSince(since uint64) ([]PosteriorDelta, uint64) {
	return sc.posteriorDeltas(func(_ string, e *selEntry) bool { return e.changed > since })
}

// posteriorDeltas builds the delta of every job want selects, and returns
// the index version alongside. Each delta's epoch and surface are read under
// coordMu and the job lock together, so it is internally consistent: a worker
// holding epoch E can propose any untried, unleased arm and the grant
// validates iff the job's bandit has not moved since E.
func (sc *Scheduler) posteriorDeltas(want func(id string, e *selEntry) bool) ([]PosteriorDelta, uint64) {
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	var out []PosteriorDelta
	for i := range sc.selIdx.entries {
		if e := &sc.selIdx.entries[i]; want(e.job.ID, e) {
			out = append(out, sc.posteriorDeltaLocked(i))
		}
	}
	return out, sc.selIdx.version
}

// posteriorDeltaLocked builds job i's wire delta. Callers hold coordMu
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

// SpeculativeGrant validates one worker proposal and, when it holds, leases
// (jobID, arm) without running the pick path: the only checks are the epoch
// comparison, the job's in-flight arm list (an epoch match says nothing
// about the lease set — lease churn deliberately does not bump epochs), the
// job's own terminal flags and that its bandit has not moved past the
// published epoch, and the only bandit work is the hallucination update on
// the job's persistent shadow. It returns (nil, nil) when the
// proposal is stale — wrong epoch, arm already leased/tried, job done —
// which callers treat as "fall back to the normal pick path and resync the
// worker". Malformed proposals (unknown arm index) are an error.
//
// The fast path intentionally skips the cross-job picker, so it is blind to
// class weights and σ̃ fair sharing; fairness is preserved by the fallback
// path (every stale or rejected proposal goes through the full picker) and
// by preemption, which treats speculative leases like any other.
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
	sc.emitSpeculativeProvenance(l, job, len(sc.selIdx.entries), t0, hallStart, hallDur)
	sc.addLeaseLocked(l)
	sc.selIdx.stats.Picks++
	sc.selIdx.stats.SpeculativeGrants++
	return l, nil
}

// emitSpeculativeProvenance records a speculative grant's spans and
// DecisionRecord: the lease root span carries path=speculative and the
// selection-stage child is opPickSpeculative (not opPickSelect), so span
// trees distinguish the two grant paths; the pick decision's Detail says
// "speculative" for the same reason. No TopUCB table — the whole point of
// the fast path is not touching the UCB surface. Called with coordMu and
// the job lock held; it only touches leaf mutexes.
func (sc *Scheduler) emitSpeculativeProvenance(l *Lease, job *Job, jobsInSnapshot int, t0, hallStart time.Time, hallDur time.Duration) {
	name := l.Candidate.Name() // renders once: the fast path is hot
	root := telemetry.NewSpanAt(l.Trace, "", opLease, t0)
	root.SetAttr("job", l.JobID)
	root.SetAttr("tenant", job.Name)
	root.SetAttr("candidate", name)
	root.SetAttr("path", "speculative")
	l.span = root

	now := time.Now()
	sel := telemetry.NewSpanAt(l.Trace, root.ID(), opPickSpeculative, t0)
	sel.EndAt(now)
	if hallDur > 0 {
		h := telemetry.NewSpanAt(l.Trace, root.ID(), opPickHallucinate, hallStart)
		h.EndAt(hallStart.Add(hallDur))
	}

	d := &DecisionRecord{
		Kind:         DecisionPick,
		TimeNS:       now.UnixNano(),
		Trace:        l.Trace,
		Tenant:       job.Name,
		Job:          l.JobID,
		Candidate:    name,
		Arm:          l.Arm,
		UCB:          l.UCB,
		Jobs:         jobsInSnapshot,
		Class:        string(job.Class),
		ClassWeights: classWeights,
		BudgetUsed:   job.tenant.Bandit.CumulativeCost(),
		Detail:       "speculative",
	}
	if sc.adm != nil {
		d.BudgetLimit = sc.adm.Budget(job.Name)
	}
	sc.decisions.add(d)
}
