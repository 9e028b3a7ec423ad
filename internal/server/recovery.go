package server

import (
	"fmt"

	"repro/internal/storage"
)

// Recover opens the data directory dir, streams its checkpoint and WAL
// tail through apply — the path every live mutation takes, so each job's
// candidates, posterior, σ̃, abandoned arms, budget drain, examples and
// models come back as the previous process built them — and attaches the
// log, which it returns for the caller to close, with the tail's event
// counts. Leases are not restored: their arms are untried in the recovered
// state, so the first scheduling pass re-queues that work. The scheduler
// must be fresh; after an error it is discarded.
func (sc *Scheduler) Recover(dir string, opts storage.LogOptions) (*storage.Log, storage.Tail, error) {
	sc.jobsMu.Lock()
	defer sc.jobsMu.Unlock()
	if rounds, leases := sc.Rounds(), sc.InFlight(); len(sc.jobs) != 0 || rounds != 0 || leases != 0 {
		return nil, nil, fmt.Errorf("server: Recover requires a fresh scheduler (have %d jobs, %d rounds, %d leases)",
			len(sc.jobs), rounds, leases)
	}
	log, tail, err := storage.Open(dir, opts, sc.apply)
	if err != nil {
		return nil, nil, err
	}
	sc.log = log
	return log, tail, nil
}

// Compact folds the write-ahead log into the data directory's snapshot
// (POST /admin/snapshot, graceful shutdown) and drops the covered prefix,
// bounding boot-time replay. It errors without an attached log. Safe while
// the service runs: the seq horizon is read *before* the state is
// captured, so an event racing the capture stays in the WAL tail (apply
// runs before its append, so an event at or below the horizon is always
// in the capture), and apply's idempotency absorbs the overlap.
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
		metas[i] = storage.JobMeta{ID: job.ID, Name: job.Name, Program: job.ProgramString()}
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
