package server

import (
	"repro/internal/admission"
	"repro/internal/storage"
)

// Tenant admission control: the wiring between the scheduler and
// internal/admission. The controller passed to NewScheduler gates Submit
// (rate limit + concurrent-job cap) and Feed (rate limit), assigns every
// job its tenant's service class — the scheduler's class-weighted picker
// shares the pool across classes by weight, guaranteed > standard >
// best-effort, with HYBRID within each class — enforces GPU cost budgets
// against the bandits' cumulative cost, and lets guaranteed-class work
// preempt outstanding best-effort leases when the pool is saturated.
// Recovery re-registers recovered jobs with it, so their tenants keep
// their class and their concurrent-job slots.

// TenantCost returns the total GPU cost paid so far by every job of a
// tenant — the quantity budgets are enforced against.
func (sc *Scheduler) TenantCost(tenant string) float64 {
	var cost float64
	for _, job := range sc.jobsSnapshot() {
		if job.Name != tenant {
			continue
		}
		job.mu.Lock()
		cost += job.tenant.Bandit.CumulativeCost()
		job.mu.Unlock()
	}
	return cost
}

// TenantCosts returns the total GPU cost paid per tenant, for the admin
// quota surface.
func (sc *Scheduler) TenantCosts() map[string]float64 {
	out := make(map[string]float64)
	for _, job := range sc.jobsSnapshot() {
		job.mu.Lock()
		out[job.Name] += job.tenant.Bandit.CumulativeCost()
		job.mu.Unlock()
	}
	return out
}

// BudgetExhausted reports whether a job was drained by budget exhaustion.
func (sc *Scheduler) BudgetExhausted(jobID string) bool {
	job, ok := sc.Job(jobID)
	if !ok {
		return false
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	return job.budgetExhausted
}

// enforceBudget checks a tenant's cumulative GPU cost against its declared
// budget and, once exceeded, drains every unfinished job of the tenant:
// all remaining untried arms (leased or not) are retired, so the jobs read
// as exhausted to every picker and late lease settlements bounce off
// ErrLeaseConflict exactly like an expired lease. Each drained job logs
// one budget_exhausted WAL event (the drain's events commit as one batch),
// so a recovered process agrees the job is done training instead of
// resuming it. Returns the WAL append failure; the in-memory drain always
// completes.
func (sc *Scheduler) enforceBudget(tenant string) error {
	if sc.adm == nil {
		return nil
	}
	budget := sc.adm.Budget(tenant)
	if budget <= 0 {
		return nil
	}
	jobs := sc.jobsSnapshot()
	var cost float64
	var own []*Job
	for _, job := range jobs {
		if job.Name != tenant {
			continue
		}
		own = append(own, job)
		job.mu.Lock()
		cost += job.tenant.Bandit.CumulativeCost()
		job.mu.Unlock()
	}
	if cost < budget {
		return nil
	}
	var events []storage.Event
	for _, job := range own {
		// The job's settle lock orders the drain against its settles and
		// abandons, and against a concurrent drain of the same tenant, so
		// each job is drained, recorded and logged once.
		job.settleMu.Lock()
		job.mu.Lock()
		done := job.budgetExhausted || job.failed != ""
		job.mu.Unlock()
		ev := storage.Event{Type: storage.EventBudgetExhausted, Job: job.ID, Tenant: tenant, Cost: cost}
		if !done {
			_ = sc.applyLive(ev, nil) // the job is known: a drain cannot fail
		}
		job.settleMu.Unlock()
		if done {
			continue
		}
		sc.decisions.Add(&DecisionRecord{
			Kind:        DecisionBudgetExhausted,
			Tenant:      tenant,
			Job:         job.ID,
			Class:       string(job.Class),
			BudgetLimit: budget,
			BudgetUsed:  cost,
			Outcome:     "drained",
		})
		events = append(events, ev)
	}
	return sc.logEvents("budget exhaustion", tenant, events...)
}

// PreemptForPriority implements priority preemption over the lease table:
// when a guaranteed-class job has selectable work, one outstanding
// best-effort lease is reclaimed to make room for it. The mechanics reuse
// the lease-expiry path exactly — the victim leaves the table, its
// candidate re-enters GP-BUCB selection exactly once, and the preempted
// worker's late Complete/Release bounces off ErrLeaseConflict (HTTP 409) —
// so no candidate is ever lost or double-counted.
//
// Only worker-assigned, non-settling leases are eligible: the in-process
// engine settles its (unassigned) leases synchronously and cannot abort a
// local run, mirroring the expiry rules. Among eligible victims the most
// recently granted lease is preempted (least sunk work). The caller — the
// fleet coordinator, when its in-flight cap is saturated — decides *when*
// preemption is warranted; this method decides *whether* the class rules
// allow it. With a WAL attached the preemption is logged as operational
// history. Returns nil when no preemption is warranted.
func (sc *Scheduler) PreemptForPriority() (*Lease, error) {
	sc.coordMu.Lock()
	ix := &sc.selIdx
	// A guaranteed job is starved when it still has an untried, unleased
	// arm — its view is active (a failed or drained job has every arm
	// retired). The first such job in submission order demands.
	demanding := ""
	first := len(ix.entries)
	for _, c := range ix.classes {
		if !admission.Class(c.key).MayPreempt() || c.active == 0 {
			continue
		}
		if i := c.members[c.firstActive()]; i < first {
			first, demanding = i, ix.entries[i].job.ID
		}
	}
	if demanding == "" {
		sc.coordMu.Unlock()
		return nil, nil
	}
	var victim *Lease
	for victim == nil {
		var newest *Lease
		for _, l := range sc.leases {
			if l.state.Load() != leaseOutstanding || l.Worker == "" || !l.job.Class.Preemptible() {
				continue
			}
			if newest == nil || l.ID > newest.ID {
				newest = l // newest grant: least sunk work
			}
		}
		if newest == nil {
			sc.coordMu.Unlock()
			return nil, nil
		}
		if sc.dropLeaseLocked(newest, leaseOutstanding) { // else a settle claimed it meanwhile
			victim = newest
		}
	}
	victimJob := victim.job
	sc.coordMu.Unlock()

	finishLeaseSpan(victim, "preempted", nil)
	sc.decisions.Add(&DecisionRecord{
		Kind:         DecisionPreemption,
		Trace:        victim.Trace,
		Tenant:       victimJob.Name,
		Job:          victim.JobID,
		Candidate:    victim.Candidate.Name(),
		Arm:          victim.Arm,
		Class:        string(victimJob.Class),
		ClassWeights: classWeights,
		Outcome:      "preempted",
		Detail:       "demanding job " + demanding,
	})

	ev := storage.Event{Type: storage.EventLeasePreempted, Job: victim.JobID, Candidate: victim.Candidate.Name(), Worker: victim.Worker, By: demanding}
	return victim, sc.logEvents("preemption", victim.JobID, ev)
}
