package server

import (
	"fmt"

	"repro/internal/bandit"
)

// referenceGrant is the picker the selection index replaced, kept as the
// oracle Grant must agree with bit for bit: every pick is the linear
// UserPicker.Pick scan over all tenants (never the index's heap), and a
// job with arms in flight is diversified through a deep posterior clone
// (bandit.CloneShadow) rebuilt for every batch (never a persistent,
// prefix-sharing shadow). Same (n, limit) contract as Grant; leases it
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
		sc.leases[l.ID] = l
		picked = append(picked, l)
	}
	return picked, nil
}
