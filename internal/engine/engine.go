// Package engine implements the asynchronous multi-device execution engine
// that closes the §6 future-work gap: instead of training one candidate at a
// time across the whole GPU pool (the deployed single-device strategy of
// §4.5), a worker pool keeps several devices busy at once, with the
// candidate stream chosen by the multi-tenant scheduler's lease lifecycle
// (server.Scheduler.Grant / Settle) under GP-BUCB hallucination so
// concurrent picks diversify.
//
// The engine is W workers, each on the one-lease cycle of
// Scheduler.RunRound, so at most W leases are in flight:
//
//	worker 0 ──Grant(1)──▶ Train ──▶ Settle ──▶ Grant(1) …
//	worker 1 ──Grant(1)──▶ Train ──▶ Settle ──▶ Grant(1) …
//
// A worker that finds no work waits for a kick, a poll tick or
// cancellation; one that gets a lease kicks the next idle worker, so a
// Submit's kick fans out to all of them. No dispatcher grants ahead of the
// workers: against one that kept 2×W leases in a bounded queue, ten
// alternated pairs of every workload (10 s, 2 CPUs) had no row worse than
// its bound, and drain_engine cpu_ms_per_op read 0.0326 → 0.0260 ms
// (0.80×), ops_per_s 1.02×, op_p95_ms 0.98×. The price: a worker with
// work never idles, so while W ≥ GOMAXPROCS a goroutine queued on a P
// whose thread the OS has descheduled waits out that stall (the Go
// scheduler steals only into an idle P), where the dispatcher's hand-offs
// idled a P often enough to rescue it. A run therefore starts its workers
// only after the caller's P has run what it had queued.
//
// A worker with work parks only on a scheduler lock, and what that costs
// is the wait: the unlocking worker readies a parked one into its own P's
// next-run slot, so the parked worker waits out the unlocker's cycle
// while its CPU idles. The scheduler keeps coordMu to the picks and one
// section per settle (a settle claims its lease lock-free and a grant
// records its pick after the lock): block profiles of drain_engine at
// W = 2 on 2 CPUs count 0.030–0.037 parks on it per lease (0.069–0.077
// with four sections), and 0.015–0.019 on the settled job's own locks.
//
// What a failed run costs — retry or abandon — is the scheduler's decision
// (Settle), shared with every other executor.
//
// Every lease a worker is granted is trained and settled exactly once.
// Stopping is graceful: each worker finishes and settles the run it is on,
// and Stop and Drain return only when every worker has.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// idlePoll is the idle re-poll period in server mode; Kick wakes an idle
// worker sooner.
const idlePoll = 50 * time.Millisecond

// ErrRunning is returned by Start/Drain when the engine is already running.
var ErrRunning = errors.New("engine: already running")

// ErrInterrupted is returned by Drain when the run ended (context cancelled
// or Stop called) before the work source ran dry.
var ErrInterrupted = errors.New("engine: drain interrupted before the work source ran dry")

// Engine keeps a device pool busy with leased scheduler work. Create with
// New, then either Drain (blocking, until the scheduler runs dry) or
// Start/Stop (server mode). It is the server.EngineControl of the admin
// endpoints. Counters are cumulative across runs.
type Engine struct {
	sched   *server.Scheduler
	trainer server.Trainer

	kick chan struct{}

	completed atomic.Int64
	released  atomic.Int64
	abandoned atomic.Int64
	errs      atomic.Int64
	inFlight  atomic.Int64

	mu           sync.Mutex
	running      bool
	cancel       context.CancelFunc
	done         chan struct{}
	started      time.Time
	elapsedTotal time.Duration // summed across finished runs

	workers []workerCounters
}

// workerCounters are one worker's cumulative counters, atomic so that a
// worker takes no lock per run.
type workerCounters struct {
	items atomic.Int64 // completed training runs
	busy  atomic.Int64 // nanoseconds spent inside Train
}

// New creates an engine of workers concurrent trainers (default 4) that
// drains sched, training every lease on trainer (usually sched.Trainer();
// tests substitute failing ones).
func New(sched *server.Scheduler, trainer server.Trainer, workers int) *Engine {
	if workers <= 0 {
		workers = 4
	}
	return &Engine{
		sched:   sched,
		trainer: trainer,
		kick:    make(chan struct{}, 1),
		workers: make([]workerCounters, workers),
	}
}

// Kick wakes an idle worker immediately (e.g. after a job submission)
// instead of waiting for the next poll tick. Safe to call at any time.
func (e *Engine) Kick() {
	select {
	case e.kick <- struct{}{}:
	default:
	}
}

// Status snapshots the engine counters. The virtual times are the pool's,
// which the engine does not see; they are left zero.
func (e *Engine) Status() server.EngineStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := server.EngineStatus{
		Running:   e.running,
		Workers:   len(e.workers),
		Completed: e.completed.Load(),
		Released:  e.released.Load(),
		Abandoned: e.abandoned.Load(),
		Errors:    e.errs.Load(),
		InFlight:  int(e.inFlight.Load()),
		// Busy counters are cumulative across runs, so Uptime must be too
		// or Utilization would exceed 1 after a restart.
		Uptime: e.elapsedTotal,
	}
	if e.running {
		st.Uptime += time.Since(e.started)
	}
	var busy time.Duration
	for i := range e.workers {
		w := server.EngineWorkerStatus{Items: e.workers[i].items.Load(), Busy: time.Duration(e.workers[i].busy.Load())}
		st.PerWorker = append(st.PerWorker, w)
		busy += w.Busy
	}
	if st.Uptime > 0 {
		st.Utilization = float64(busy) / (float64(st.Uptime) * float64(len(st.PerWorker)))
	}
	return st
}

// Drain runs the engine until no work is available and nothing is in
// flight. It returns ErrRunning when called while another run is active;
// because it shares the engine's running guard, a Drain and a Start can
// never race onto the same scheduler. A Drain cut short by its context or
// by Stop returns ErrInterrupted: a partial drain must never look like a
// completed one. On return every lease the engine obtained is settled.
func (e *Engine) Drain(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if err := e.begin(cancel); err != nil {
		return err
	}
	drained, err := e.execute(ctx, cancel, true)
	if err == nil && !drained {
		return ErrInterrupted
	}
	return err
}

// Start launches the engine in the background (server mode): it keeps
// polling for new jobs until Stop cancels it and waits for the graceful
// drain.
func (e *Engine) Start() error {
	ctx, cancel := context.WithCancel(context.Background())
	if err := e.begin(cancel); err != nil {
		cancel()
		return err
	}
	go func() {
		defer cancel()
		_, _ = e.execute(ctx, cancel, false)
	}()
	return nil
}

// Stop cancels the active run and blocks until every worker has settled its
// lease. It errors when the engine is not running.
func (e *Engine) Stop() error {
	e.mu.Lock()
	if !e.running {
		e.mu.Unlock()
		return errors.New("engine: not running")
	}
	cancel, done := e.cancel, e.done
	e.mu.Unlock()
	cancel()
	<-done
	return nil
}

// begin transitions to running.
func (e *Engine) begin(cancel context.CancelFunc) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running {
		return ErrRunning
	}
	e.running = true
	e.started = time.Now()
	e.done = make(chan struct{})
	e.cancel = cancel
	return nil
}

// execute runs the workers of an already-begun run until each has
// returned, then transitions out of running. A worker whose grant fails
// cancels the run. drained reports whether every worker stopped because
// the scheduler ran dry (exitOnIdle), as opposed to cancellation.
func (e *Engine) execute(ctx context.Context, cancel context.CancelFunc, exitOnIdle bool) (drained bool, err error) {
	// Start the workers only once what this P already had queued has run (a
	// poller the caller started just before, say): the goroutine that
	// closes queued waits behind it, because the second go statement takes
	// the P's next-run slot. Without this, a thread the OS deschedules at
	// the start strands that queue for the whole run (see the package
	// comment).
	queued := make(chan struct{})
	go close(queued)
	go func() {}()
	<-queued
	dry := make([]bool, len(e.workers))
	errs := make([]error, len(e.workers))
	var wg sync.WaitGroup
	for w := range e.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if dry[w], errs[w] = e.worker(ctx, w, exitOnIdle); errs[w] != nil {
				cancel()
			}
		}()
	}
	wg.Wait()

	e.mu.Lock()
	e.running = false
	e.elapsedTotal += time.Since(e.started)
	close(e.done)
	e.mu.Unlock()
	return !slices.Contains(dry, false), errors.Join(errs...)
}

// worker runs the one-lease cycle until the context is cancelled or
// (exitOnIdle) the scheduler runs dry; dry reports which of the two.
func (e *Engine) worker(ctx context.Context, id int, exitOnIdle bool) (dry bool, err error) {
	for ctx.Err() == nil {
		// Sample idleness BEFORE the grant: "no lease was outstanding and
		// the grant still found nothing" proves the scheduler is dry. The
		// scheduler-wide count folds in the other workers' leases and those
		// held by remote fleet workers — a leased arm is invisible to Grant
		// until it settles, and a failed run makes it selectable again. The
		// reverse order would race with such a release landing between the
		// grant and the sample, ending a drain with work left behind.
		idleBefore := e.sched.InFlight() == 0
		leases, err := e.sched.Grant(1, 0)
		if err != nil {
			e.errs.Add(1)
			return false, fmt.Errorf("engine: picking work: %w", err)
		}
		if len(leases) > 0 {
			e.Kick() // the next idle worker may find work too
			e.train(id, leases[0])
			continue
		}
		if idleBefore && exitOnIdle {
			e.Kick() // pass the verdict on to the next idle worker
			return true, nil
		}
		// Nothing to lease right now: wait for a kick (a grant elsewhere, a
		// new job), a poll tick, or cancellation.
		timer := time.NewTimer(idlePoll)
		select {
		case <-ctx.Done():
		case <-e.kick:
		case <-timer.C:
		}
		timer.Stop()
	}
	return false, nil
}

// train runs one lease and settles it (Scheduler.Run), booking the
// outcome.
func (e *Engine) train(id int, l *server.Lease) {
	e.inFlight.Add(1)
	outcome, busy, runErr, err := e.sched.Run(l, e.trainer)
	e.workers[id].busy.Add(int64(busy))
	if runErr == nil {
		e.workers[id].items.Add(1)
	} else {
		e.errs.Add(1)
	}
	switch {
	case err != nil:
		e.errs.Add(1)
	case outcome == server.SettledCompleted:
		e.completed.Add(1)
	case outcome == server.SettledReleased:
		e.released.Add(1)
	case outcome == server.SettledAbandoned:
		e.abandoned.Add(1)
	}
	e.inFlight.Add(-1)
	// A worker with work never blocks, and woken goroutines inherit their
	// waker's time slice, so without a yield the workers can keep the
	// process's other goroutines (HTTP handlers, pollers) off every P for
	// 10 ms.
	runtime.Gosched()
}
