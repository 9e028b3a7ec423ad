// Package engine implements the asynchronous multi-device execution engine
// that closes the §6 future-work gap: instead of training one candidate at a
// time across the whole GPU pool (the deployed single-device strategy of
// §4.5), a worker pool keeps several devices busy at once, with the
// candidate stream chosen by the multi-tenant scheduler's lease lifecycle
// (server.Scheduler.Grant / Settle) under GP-BUCB hallucination so
// concurrent picks diversify.
//
// The engine is a dispatcher plus N workers around a bounded work queue:
//
//	dispatcher ──Grant──▶ [bounded queue] ──▶ worker 0 ──Train──▶ Settle
//	     ▲                               └──▶ worker 1 ──Train──▶ Settle
//	     └──────────── kick on settle ◀───────────┘
//
// The dispatcher was measured against its removal and stays. In the
// alternative each worker loops Grant(1) → Train → Settle with no queue
// (idleness sampled before a retry Grant; a worker that finds work or
// exits kicks the next). Over ten alternated pairs of drain_engine (seed 1,
// 10 s, 2 CPUs) no row was worse beyond its bound: ops_per_s 27,255 →
// 29,588 (1.09×, not a gain), cpu_ms_per_op 0.84×, op_p50_ms 0.88×, but
// op_p95_ms 0.0498 → 0.0598 ms (1.20×), every run above the dispatcher's
// median. Traced, hallucination time fell 557 → 93 ms (in-flight leases
// drop from 2×W to W) while coordMu wait rose 60 → 117 ms, and two
// CPU-bound workers that never block stretched the harness sampler's poll
// gaps (p95 3 → 6 ms, p99 4 → 11 ms). Not favoured on both ops_per_s and
// op_p95_ms, so the dispatcher stays. What a failed run costs — retry or
// abandon — is the scheduler's decision (Settle), shared with every other
// executor.
//
// Leases flow exactly once: every lease the dispatcher obtains is settled
// (result observed, or the failed run released/abandoned) or released
// (drain), never both, never twice. Stopping is graceful: workers finish
// the run they are on, queued-but-unstarted leases are released back to the
// scheduler, and Stop and Drain return only when every lease is settled.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Config parameterizes an Engine. The queue between dispatcher and workers
// is Workers deep — enough to hide pick latency, small enough that stale
// leases don't pile up — and at most 2×Workers leases (queued plus
// training) are outstanding.
type Config struct {
	// Workers is the worker-pool size (default 4). Each worker trains one
	// candidate at a time, so Workers bounds wall-clock concurrency.
	Workers int
}

// idlePoll is the idle re-poll period in server mode; Kick wakes the
// dispatcher sooner.
const idlePoll = 50 * time.Millisecond

// WorkerStats is the per-worker slice of Metrics.
type WorkerStats struct {
	Items int64         // completed training runs
	Busy  time.Duration // wall time spent inside Train
}

// Metrics is a point-in-time snapshot of the engine counters.
type Metrics struct {
	Running     bool
	Workers     int
	Completed   int64 // scheduling rounds completed through this engine
	Released    int64 // leases handed back untrained
	Abandoned   int64 // candidates retired at the scheduler's retry budget
	Errors      int64 // failed training runs or reports
	InFlight    int   // leases currently queued or training
	QueueDepth  int   // leases sitting in the bounded queue
	Elapsed     time.Duration
	PerWorker   []WorkerStats
	Utilization float64 // mean busy fraction across workers over Elapsed
}

// ErrRunning is returned by Start/Drain when the engine is already running.
var ErrRunning = errors.New("engine: already running")

// ErrInterrupted is returned by Drain when the run ended (context cancelled
// or Stop called) before the work source ran dry.
var ErrInterrupted = errors.New("engine: drain interrupted before the work source ran dry")

// Engine keeps a device pool busy with leased scheduler work. Create with
// New, then either Drain (blocking, until the scheduler runs dry) or
// Start/Stop (server mode).
// Counters are cumulative across runs.
type Engine struct {
	sched   *server.Scheduler
	trainer server.Trainer
	cfg     Config

	kick chan struct{}

	completed atomic.Int64
	released  atomic.Int64
	abandoned atomic.Int64
	errs      atomic.Int64
	inFlight  atomic.Int64

	mu           sync.Mutex
	running      bool
	exitOnIdle   bool // effective mode of the current run
	queue        chan *server.Lease
	cancel       context.CancelFunc
	done         chan struct{}
	started      time.Time
	elapsedTotal time.Duration // summed across finished runs
	workers      []WorkerStats
}

// New creates an engine that drains sched, training every lease on trainer
// (usually sched.Trainer(); tests substitute failing ones).
func New(sched *server.Scheduler, trainer server.Trainer, cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	return &Engine{
		sched:   sched,
		trainer: trainer,
		cfg:     cfg,
		kick:    make(chan struct{}, 1),
		workers: make([]WorkerStats, cfg.Workers),
	}
}

// Kick wakes an idle dispatcher immediately (e.g. after a job submission)
// instead of waiting for the next poll tick. Safe to call at any time.
func (e *Engine) Kick() {
	select {
	case e.kick <- struct{}{}:
	default:
	}
}

// Running reports whether an engine run is active.
func (e *Engine) Running() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.running
}

// Metrics snapshots the engine counters.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := Metrics{
		Running:   e.running,
		Workers:   e.cfg.Workers,
		Completed: e.completed.Load(),
		Released:  e.released.Load(),
		Abandoned: e.abandoned.Load(),
		Errors:    e.errs.Load(),
		InFlight:  int(e.inFlight.Load()),
		// Busy counters are cumulative across runs, so Elapsed must be too
		// or Utilization would exceed 1 after a restart.
		Elapsed:   e.elapsedTotal,
		PerWorker: append([]WorkerStats(nil), e.workers...),
	}
	if e.queue != nil {
		m.QueueDepth = len(e.queue)
	}
	if e.running {
		m.Elapsed += time.Since(e.started)
	}
	if m.Elapsed > 0 {
		var busy time.Duration
		for _, w := range m.PerWorker {
			busy += w.Busy
		}
		m.Utilization = float64(busy) / (float64(m.Elapsed) * float64(len(m.PerWorker)))
	}
	return m
}

// Drain runs the engine until no work is available and nothing is in
// flight. It returns ErrRunning when called while another run is active;
// because it shares the engine's running guard, a Drain and a Start can
// never race onto the same scheduler. A Drain cut short by its context or
// by Stop returns ErrInterrupted: a partial drain must never look like a
// completed one. On return every lease the engine obtained has been
// completed or released.
func (e *Engine) Drain(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if err := e.begin(cancel, true); err != nil {
		return err
	}
	drained, err := e.execute(ctx)
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
	if err := e.begin(cancel, false); err != nil {
		cancel()
		return err
	}
	go func() {
		defer cancel()
		_, _ = e.execute(ctx)
	}()
	return nil
}

// execute runs the dispatcher and worker pool of an already-begun run; it
// settles every lease before returning and always calls finish. drained
// reports whether the run ended because the work source ran dry (as
// opposed to cancellation).
func (e *Engine) execute(ctx context.Context) (drained bool, err error) {
	defer e.finish()
	e.mu.Lock()
	queue := e.queue
	e.mu.Unlock()

	var wg sync.WaitGroup
	for w := 0; w < e.cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			e.worker(ctx, id, queue)
		}(w)
	}
	drained, err = e.dispatch(ctx, queue)
	close(queue)
	wg.Wait()
	return drained, err
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

// begin transitions to running, allocating the per-run queue.
func (e *Engine) begin(cancel context.CancelFunc, exitOnIdle bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running {
		return ErrRunning
	}
	e.running = true
	e.exitOnIdle = exitOnIdle
	e.started = time.Now()
	e.queue = make(chan *server.Lease, e.cfg.Workers)
	e.done = make(chan struct{})
	e.cancel = cancel
	return nil
}

// finish transitions out of running and closes the done latch.
func (e *Engine) finish() {
	e.mu.Lock()
	e.running = false
	e.elapsedTotal += time.Since(e.started)
	done := e.done
	e.mu.Unlock()
	close(done)
}

// dispatch leases work from the scheduler and feeds the bounded queue until
// the context is cancelled or (exit-on-idle) the scheduler runs dry;
// drained reports which of the two ended the run.
func (e *Engine) dispatch(ctx context.Context, queue chan<- *server.Lease) (drained bool, err error) {
	for {
		if ctx.Err() != nil {
			return false, nil
		}
		// Sample idleness BEFORE polling: a worker settles its lease in the
		// scheduler before decrementing inFlight, so "nothing was in flight
		// and the poll still found nothing" proves the scheduler is dry. The
		// scheduler-wide count folds in leases held by remote fleet workers
		// — their untried arms are invisible to Grant, so a drain must not
		// declare the scheduler dry while they are outstanding. The reverse
		// order would race with a release landing between the poll and the
		// in-flight check, ending a drain with work left behind.
		local := int(e.inFlight.Load())
		idleBefore := local == 0 && e.sched.InFlight() == 0
		var work []*server.Lease
		if want := 2*e.cfg.Workers - local; want > 0 {
			if work, err = e.sched.Grant(want, 0); err != nil {
				e.errs.Add(1)
				return false, fmt.Errorf("engine: picking work: %w", err)
			}
		}
		e.inFlight.Add(int64(len(work)))
		for i, l := range work {
			select {
			case queue <- l:
			case <-ctx.Done():
				// Graceful stop while enqueueing: hand this lease and the
				// rest of the batch straight back.
				for _, rest := range work[i:] {
					e.release(rest)
				}
				return false, nil
			}
		}
		if len(work) > 0 {
			continue
		}
		if idleBefore && e.exitOnIdle {
			return true, nil
		}
		// Nothing to lease right now: wait for a settle or a new job (kick),
		// a poll tick, or cancellation.
		timer := time.NewTimer(idlePoll)
		select {
		case <-ctx.Done():
			timer.Stop()
			return false, nil
		case <-e.kick:
			timer.Stop()
		case <-timer.C:
		}
	}
}

// worker trains leases from the queue until it closes. After cancellation it
// keeps draining the queue but releases leases instead of training them.
func (e *Engine) worker(ctx context.Context, id int, queue <-chan *server.Lease) {
	for l := range queue {
		if ctx.Err() != nil {
			e.release(l)
			continue
		}
		start := time.Now()
		acc, cost, runErr := e.trainer.Train(l.JobID, l.Candidate)
		busy := time.Since(start)

		e.mu.Lock()
		e.workers[id].Busy += busy
		if runErr == nil {
			e.workers[id].Items++
		}
		e.mu.Unlock()

		if runErr != nil {
			e.errs.Add(1)
		}
		outcome, err := e.sched.Settle(l, acc, cost, runErr)
		e.settled(outcome, err)
	}
}

// release hands a lease back untrained (graceful stop).
func (e *Engine) release(l *server.Lease) {
	e.settled(server.SettledReleased, e.sched.Release(l))
}

// settled books one lease's terminal outcome and wakes the dispatcher. The
// lease is settled in the scheduler before inFlight drops — dispatch's
// idleness sample depends on that order.
func (e *Engine) settled(outcome string, err error) {
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
	e.Kick()
}
