package server

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/dsl"
	"repro/internal/storage"
)

// apply makes the durable change one WAL event describes. It is the only
// mutator of what recovery rebuilds: the job registry, the task stores,
// each job's bandit, σ̃ recurrence, abandoned list and budget marker, and
// the round counter. A live path applies its event, then appends it
// (Submit appends, then publishes its build, in one jobsMu section), so
// every event at or below Log.Seq() is in memory, which Compact's capture
// relies on; Recover streams the log through apply. apply reads only the
// event (the UCB the arm was leased at travels in it); leases, shadows and
// the pickers' state stay soft. Every case is idempotent, since replay may
// repeat an event the checkpoint holds.
//
// An event apply refuses is never logged. Decided before the append:
//   - job_submitted: the program parses and its candidates build (Submit
//     builds and publishes its own; Recover builds from the log).
//   - example_fed: admission, the schema, finite values (FeedBatch).
//   - example_refined: the example exists (apply's error).
//   - model_recorded: the lease is outstanding (beginSettle); the job is
//     neither failed nor drained, the arm untried and the observation
//     well-conditioned (apply's errors; an ill-conditioned one fails the
//     job). A live settle (Round 0) takes the next round. A logged record
//     is history: its round is kept, and one whose observation fails on
//     replay fails its job, which keeps it and its later records, so one
//     tenant's numerics never stop a recovery.
//   - candidate_abandoned: the arm is untried (Abandon).
//   - budget_exhausted: the tenant is over budget and the job neither
//     drained nor failed (enforceBudget).
//   - lease_expired, lease_preempted: history, nothing to apply.
//
// Abandon and enforceBudget decide under the job's settle lock, which
// every bandit mutation of a live job holds. Callers hold jobsMu: the
// write side for job_submitted, the read side otherwise (applyLive);
// Recover holds the write side for the whole stream.
func (sc *Scheduler) apply(ev storage.Event) error { return sc.applySettling(ev, nil) }

// applySettling is apply for a settle of lease l (nil: none): a
// model_recorded or candidate_abandoned event that moves the bandit drops
// l in the coordMu section that publishes the move.
func (sc *Scheduler) applySettling(ev storage.Event, l *Lease) error {
	switch ev.Type {
	case storage.EventJobSubmitted:
		return sc.applySubmitted(ev)
	case storage.EventLeaseExpired, storage.EventLeasePreempted:
		return nil
	}
	job, ok := sc.byID[ev.Job]
	if !ok {
		return errNoJob(ev.Job)
	}
	switch ev.Type {
	case storage.EventExampleFed:
		job.store.PutExample(storage.Example{ID: ev.Example, Input: ev.Input, Output: ev.Output, Enabled: true})
		return nil
	case storage.EventExampleRefined:
		return job.store.Refine(ev.Example, ev.Enabled)
	case storage.EventModelRecorded:
		return sc.applyModel(job, ev.Model, *ev.UCB, l) // storage decodes none without either
	case storage.EventCandidateAbandoned:
		arm := job.arm(ev.Candidate)
		if arm < 0 {
			return fmt.Errorf("server: abandoned candidate %q does not match a candidate of %q", ev.Candidate, job.ID)
		}
		job.mu.Lock()
		if !slices.Contains(job.abandoned, ev.Candidate) {
			job.tenant.Bandit.Retire(arm)
			job.abandoned = append(job.abandoned, ev.Candidate)
		}
		sc.finishApplyLocked(job, nil, l)
		return nil
	case storage.EventBudgetExhausted:
		job.mu.Lock()
		if !job.budgetExhausted {
			job.budgetExhausted = true
			for arm := 0; arm < job.tenant.Bandit.NumArms(); arm++ {
				job.tenant.Bandit.Retire(arm) // no-op for tried arms
			}
		}
		sc.finishApplyLocked(job, nil, nil)
		return nil
	}
	return fmt.Errorf("server: unknown event type %q", ev.Type)
}

// applyLive is applySettling for a live path holding no scheduler lock.
func (sc *Scheduler) applyLive(ev storage.Event, l *Lease) error {
	sc.jobsMu.RLock()
	defer sc.jobsMu.RUnlock()
	return sc.applySettling(ev, l)
}

// applySubmitted builds the job a job_submitted event names from its
// logged program and publishes it; the job re-takes its tenant's
// admission slot (a live job took it at the gate; a drained one gives it
// back as its later events apply). Submit publishes its own build.
func (sc *Scheduler) applySubmitted(ev storage.Event) error {
	if _, ok := sc.byID[ev.Job]; ok {
		return nil
	}
	prog, err := dsl.ParseCached(ev.Program)
	if err != nil {
		return fmt.Errorf("server: recovering job %s: parsing logged program: %w", ev.Job, err)
	}
	job, err := sc.buildJob(ev.Job, ev.Name, prog)
	if err != nil {
		return fmt.Errorf("server: recovering job %s: %w", ev.Job, err)
	}
	if sc.adm != nil {
		sc.adm.NoteJob(job.Name)
	}
	sc.publishLocked(job)
	return nil
}

// publishLocked adds a built job to the registry and the selection index.
// Callers hold jobsMu's write side.
func (sc *Scheduler) publishLocked(job *Job) {
	if n := jobNumber(job.ID); n > sc.nextID {
		sc.nextID = n
	}
	job.tenant.ID = len(sc.jobs)
	sc.jobs = append(sc.jobs, job)
	sc.byID[job.ID] = job
	job.mu.Lock()
	s := sc.scoreLocked(job)
	job.mu.Unlock()
	sc.coordMu.Lock()
	sc.selIdx.add(job, s)
	sc.coordMu.Unlock()
}

// applyModel observes a recorded run, feeds the UCB its arm was leased
// at into the σ̃ recurrence, claims or restores its round and stores the
// record: the observation under the job's lock, the round, publish and
// the drop of the settling lease l (if any) under coordMu, then the store.
// A record it refuses leaves l to its caller.
func (sc *Scheduler) applyModel(job *Job, m *storage.ModelRecord, ucb float64, l *Lease) error {
	arm := job.arm(m.Name)
	if arm < 0 {
		return fmt.Errorf("server: recovered run %q does not match a candidate of %q", m.Name, job.ID)
	}
	logged := m.Round != 0 // replayed: the live service accepted it
	job.mu.Lock()
	var err error
	switch {
	case logged && job.store.HasModel(m.Name):
		job.mu.Unlock()
		return nil // a replayed record the checkpoint already holds
	case logged && job.failed != "":
		// The job failed on replay only: keep the record, observe nothing.
	case job.failed != "":
		err = fmt.Errorf("server: job %s is failed (%s); dropping result for %s", job.ID, job.failed, m.Name)
	case job.budgetExhausted:
		// The tenant's budget ran out while this run was in flight: the
		// late result bounces like one for an expired lease.
		err = fmt.Errorf("server: job %s drained on budget exhaustion; dropping result for %s: %w", job.ID, m.Name, ErrLeaseConflict)
	case job.tenant.Bandit.Tried(arm):
		err = fmt.Errorf("server: arm %d (%s) of %s already observed or retired: %w", arm, m.Name, job.ID, ErrLeaseConflict)
	default:
		oerr := job.tenant.Bandit.Observe(arm, m.Accuracy)
		if oerr == nil {
			job.tenant.RecordObservation(ucb, m.Accuracy)
			break
		}
		sc.failJobLocked(job, oerr)
		if !logged {
			sc.finishApplyLocked(job, nil, l)
			return fmt.Errorf("server: job %s failed: %w", job.ID, oerr)
		}
	}
	if err != nil {
		job.mu.Unlock()
		return err
	}
	sc.finishApplyLocked(job, m, l)
	job.store.RecordModel(*m, ucb)
	return nil
}

// finishApplyLocked ends an apply that moved job's bandit: a job with no
// open arm left gives back its admission slot, an observed model m claims
// the next round (Round 0, a live settle: rounds count in completion
// order) or restores its logged one, the job's scalars are published and
// the settling lease l (nil: none) leaves the table — one coordMu section,
// so no pick sees the arm both tried and leased. Callers hold job.mu,
// which it releases.
func (sc *Scheduler) finishApplyLocked(job *Job, m *storage.ModelRecord, l *Lease) {
	if job.tenant.Bandit.Exhausted() {
		sc.markJobDoneLocked(job)
	}
	s := sc.scoreLocked(job)
	job.mu.Unlock()
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	if m != nil {
		if m.Round == 0 {
			sc.rounds++
			m.Round = sc.rounds
		}
		sc.rounds = max(sc.rounds, m.Round)
	}
	sc.selIdx.publish(job.tenant.ID, s)
	if l != nil {
		sc.settledLocked(l)
	}
}

// arm returns the index of the candidate with the given name, or -1.
func (job *Job) arm(name string) int {
	if i, ok := job.plan.arms[name]; ok {
		return i
	}
	return -1
}

// jobNumber extracts the numeric suffix of a "job-NNNN" id (0 when the id
// has a different shape — foreign ids simply don't advance the counter).
func jobNumber(id string) int {
	suffix, ok := strings.CutPrefix(id, "job-")
	n, err := strconv.Atoi(suffix)
	if !ok || err != nil {
		return 0
	}
	return n
}
