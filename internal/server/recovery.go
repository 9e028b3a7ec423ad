package server

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dsl"
	"repro/internal/storage"
)

// Boot-time recovery and log compaction: the wiring between the scheduler
// and internal/storage's write-ahead log. A -data-dir deployment calls
// storage.OpenDir at boot (snapshot load + WAL tail replay), hands the
// result to Recover, and triggers Compact from POST /admin/snapshot or on
// graceful shutdown.

// Recover rebuilds a fresh scheduler from a recovered data directory and
// attaches the log for future appends. Every job is resubmitted from its
// logged program (reproducing the same id and candidate surface
// deterministically), examples and refine state land in the per-task
// stores, completed runs are fed back into each job's bandit so the GP
// posterior resumes where the crashed process stopped, and abandoned
// candidates stay retired. Leases of the previous process are deliberately
// not restored: their arms are simply untried in the recovered state, so
// the first scheduling pass re-queues that work instead of losing it.
//
// rec may be nil (a brand-new data directory): only the log is attached.
func (sc *Scheduler) Recover(rec *storage.RecoveredState, log *storage.Log) error {
	sc.jobsMu.Lock()
	defer sc.jobsMu.Unlock()
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	if len(sc.jobs) != 0 || sc.rounds != 0 || len(sc.leases) != 0 {
		return fmt.Errorf("server: Recover requires a fresh scheduler (have %d jobs, %d rounds, %d leases)",
			len(sc.jobs), sc.rounds, len(sc.leases))
	}
	if rec != nil {
		// Adopt the recovered store wholesale: the jobs built below attach
		// to its task stores, so examples and model records are already in
		// place and only the bandit replay remains.
		sc.store = rec.Store
		for _, meta := range rec.Jobs {
			prog, err := dsl.ParseCached(meta.Program)
			if err != nil {
				return fmt.Errorf("server: recovering job %s: parsing logged program: %w", meta.ID, err)
			}
			job, err := sc.buildJob(meta.ID, meta.Name, prog)
			if err != nil {
				return fmt.Errorf("server: recovering job %s: %w", meta.ID, err)
			}
			if n := jobNumber(meta.ID); n > sc.nextID {
				sc.nextID = n
			}
			job.tenant.ID = len(sc.jobs)
			sc.jobs = append(sc.jobs, job)
			sc.byID[meta.ID] = job
		}
		for _, job := range sc.jobs {
			job.mu.Lock()
			err := sc.replayTaskLocked(job)
			if err == nil {
				err = sc.retireAbandonedLocked(job, rec.Abandoned[job.ID])
			}
			if err == nil && rec.BudgetExhausted[job.ID] {
				// The previous process drained this job on budget
				// exhaustion; a recovered process must agree rather than
				// resume training it. Remaining arms are re-retired — the
				// replayed observations already restored the cumulative
				// cost, so status and the WAL tell one story.
				job.budgetExhausted = true
				for arm := 0; arm < job.tenant.Bandit.NumArms(); arm++ {
					job.tenant.Bandit.Retire(arm)
				}
			}
			if err == nil && sc.adm != nil {
				// Re-register surviving jobs with the admission controller
				// (without gating: they were admitted by a previous
				// process). Finished jobs only mark themselves notified, so
				// they never free a slot they no longer hold.
				if job.failed != "" || job.budgetExhausted || job.tenant.Bandit.Exhausted() {
					job.doneNotified = true
				} else {
					sc.adm.NoteJob(job.Name)
				}
			}
			score := sc.scoreLocked(job)
			job.mu.Unlock()
			if err != nil {
				return err
			}
			sc.selIdx.add(job, score) // in sc.jobs order: entry i is job i
		}
	}
	sc.log = log
	return nil
}

// retireAbandonedLocked re-retires the candidates a previous process
// abandoned after repeated training failures. Callers hold job.mu.
func (sc *Scheduler) retireAbandonedLocked(job *Job, names []string) error {
	if len(names) == 0 {
		return nil
	}
	candidateIdx := make(map[string]int, len(job.Candidates))
	for i, c := range job.Candidates {
		candidateIdx[c.Name()] = i
	}
	for _, name := range names {
		arm, ok := candidateIdx[name]
		if !ok {
			return fmt.Errorf("server: abandoned candidate %q does not match a candidate of %q", name, job.ID)
		}
		job.tenant.Bandit.Retire(arm)
		job.abandoned = append(job.abandoned, name)
	}
	return nil
}

// jobNumber extracts the numeric suffix of a "job-NNNN" id (0 when the id
// has a different shape — foreign ids simply don't advance the counter).
func jobNumber(id string) int {
	suffix, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(suffix)
	if err != nil {
		return 0
	}
	return n
}

// Compact folds the write-ahead log into the data directory's snapshot and
// drops the covered prefix, bounding boot-time replay. It errors without an
// attached log. Safe to call while the service is running: the sequence
// horizon is read *before* the job registry and abandoned sets are
// captured, so any event racing the capture stays in the WAL tail (every
// mutation lands in memory before its append, hence an event at or below
// the horizon is always reflected in the capture), and replay idempotency
// absorbs the overlap.
func (sc *Scheduler) Compact() error {
	if sc.log == nil {
		return fmt.Errorf("server: no write-ahead log attached (start with a data dir)")
	}
	through := sc.log.Seq()
	jobs := sc.Jobs()
	metas := make([]storage.JobMeta, len(jobs))
	abandoned := make(map[string][]string)
	var budgetExhausted []string
	for i, job := range jobs {
		metas[i] = storage.JobMeta{ID: job.ID, Name: job.Name, Program: job.Program.String()}
		job.mu.Lock()
		if len(job.abandoned) > 0 {
			abandoned[job.ID] = append([]string(nil), job.abandoned...)
		}
		if job.budgetExhausted {
			budgetExhausted = append(budgetExhausted, job.ID)
		}
		job.mu.Unlock()
	}
	return sc.log.Compact(metas, abandoned, budgetExhausted, sc.store, through)
}
