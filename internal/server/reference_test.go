package server

import (
	"fmt"
	"sort"

	"repro/internal/bandit"
	"repro/internal/core"
)

// referenceGrant is the picker the selection index replaced, kept as the
// oracle Grant must agree with bit for bit: it takes every job's lock and
// reads the real tenants (never the index's published views), every pick is
// the linear UserPicker.Pick scan over all of them (never a class heap),
// the in-flight arms are regrouped from the lease table (never the index's
// lease lists), and a job with arms in flight is diversified through a deep
// posterior clone (bandit.CloneShadow) rebuilt for every batch (never a
// persistent, prefix-sharing shadow). Same (n, limit) contract as Grant; leases it
// creates are real and settle through the scheduler's own Complete /
// Release / Abandon. It records no spans, decisions or selection stats.
func referenceGrant(sc *Scheduler, n, limit int) ([]*Lease, error) {
	jobs := sc.jobsSnapshot()
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	inFlight := sc.inFlightArmsLocked()
	tenants, unlock := sc.lockForPicking(jobs, inFlight)
	defer unlock()

	shadows := make(map[string]*bandit.GPUCB)
	var picked []*Lease
	for len(picked) < n && (limit <= 0 || len(sc.leases) < limit) && anyActive(tenants) {
		idx := sc.picker.Pick(tenants)
		if idx < 0 || idx >= len(jobs) || !jobs[idx].tenant.Active() {
			return picked, fmt.Errorf("reference: picker %s chose %d, not an active tenant", sc.picker.Name(), idx)
		}
		job := jobs[idx]
		var arm int
		var ucb float64
		shadow, ok := shadows[job.ID]
		if !ok && len(inFlight[job.ID]) > 0 {
			shadow = job.tenant.Bandit.CloneShadow(inFlight[job.ID])
			shadows[job.ID] = shadow
		}
		if shadow != nil {
			arm, ucb = shadow.SelectArm()
			shadow.Hallucinate(arm)
		} else {
			// Nothing in flight: the real bandit's pick, no shadow at all.
			arm, ucb = job.tenant.Bandit.SelectArm()
		}
		if arm < 0 {
			return picked, fmt.Errorf("reference: job %s reported active but selected no arm", job.ID)
		}
		inFlight[job.ID] = append(inFlight[job.ID], arm)
		job.tenant.SetLeased(len(inFlight[job.ID]))
		l := sc.newLeaseLocked(job, arm, ucb)
		sc.addLeaseLocked(l) // settles go through the scheduler's own paths
		picked = append(picked, l)
	}
	return picked, nil
}

// lockForPicking acquires every job lock (in slice order, per the lock
// discipline) and builds the tenant slice — the real, bandit-backed tenants
// — with current leased counts. Callers hold coordMu and must call unlock
// when the batch is done.
func (sc *Scheduler) lockForPicking(jobs []*Job, inFlight map[string][]int) ([]*core.Tenant, func()) {
	for _, j := range jobs {
		j.mu.Lock()
	}
	tenants := make([]*core.Tenant, len(jobs))
	for i, j := range jobs {
		j.tenant.SetLeased(len(inFlight[j.ID]))
		tenants[i] = j.tenant
	}
	return tenants, func() {
		for _, j := range jobs {
			j.mu.Unlock()
		}
	}
}

// inFlightArmsLocked collects the in-flight arms per job from the
// outstanding leases, each job's list ordered by lease grant time (lease
// ids are monotone) — the order the index's lease lists keep incrementally.
// Callers must hold coordMu.
func (sc *Scheduler) inFlightArmsLocked() map[string][]int {
	byJob := make(map[string][]*Lease)
	for _, l := range sc.leases {
		byJob[l.JobID] = append(byJob[l.JobID], l)
	}
	inFlight := make(map[string][]int, len(byJob))
	for id, leases := range byJob {
		sort.Slice(leases, func(i, j int) bool { return leases[i].ID < leases[j].ID })
		arms := make([]int, len(leases))
		for i, l := range leases {
			arms[i] = l.Arm
		}
		inFlight[id] = arms
	}
	return inFlight
}

func anyActive(tenants []*core.Tenant) bool {
	for _, t := range tenants {
		if t.Active() {
			return true
		}
	}
	return false
}
