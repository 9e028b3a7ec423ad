package fleet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
)

// Worker lifecycle states.
const (
	// WorkerAlive: registered and heartbeating.
	WorkerAlive = "alive"
	// WorkerDead: silent past the dead-after horizon; its leases expire by
	// TTL. A heartbeat from a dead worker revives it (it was slow, not
	// gone).
	WorkerDead = "dead"
	// WorkerLeft: deregistered gracefully via /fleet/leave. Terminal — a
	// departed worker re-registers under a fresh id.
	WorkerLeft = "left"
)

// ErrUnknownWorker is returned for requests naming a worker id the
// registry does not know (never registered, or gone after /fleet/leave);
// the HTTP layer maps it to 409 with CodeUnknownWorker so agents
// re-register.
var ErrUnknownWorker = fmt.Errorf("fleet: unknown worker")

// workerEntry is the registry's record of one worker.
type workerEntry struct {
	id        string
	name      string
	devices   int
	alpha     float64
	state     string
	lastBeat  time.Time
	completed int64
	failures  int64
	expired   int64
	preempted int64
}

// registry tracks the fleet's workers: join/leave/dead transitions and
// per-worker outcome tallies. It is the bookkeeping half of the
// coordinator; which worker holds which lease is the scheduler's lease
// table. Its methods take the time from the coordinator's clock.
type registry struct {
	mu        sync.Mutex
	deadAfter time.Duration // silence before a worker is marked dead
	// evictAfter bounds registry growth: departed and dead workers holding
	// no lease are dropped entirely once silent this long, so re-register
	// churn (every coordinator blip adds a fresh worker id) cannot grow the
	// registry and the /admin/fleet payload forever.
	evictAfter time.Duration
	nextID     int
	workers    map[string]*workerEntry
}

func newRegistry(deadAfter time.Duration) *registry {
	evictAfter := 10 * deadAfter
	if evictAfter < 5*time.Minute {
		// A floor keeps just-departed workers visible to operators (and
		// deterministic in fast tests) regardless of how short the TTL is.
		evictAfter = 5 * time.Minute
	}
	return &registry{deadAfter: deadAfter, evictAfter: evictAfter, workers: make(map[string]*workerEntry)}
}

// register adds a worker and returns its assigned id.
func (r *registry) register(name string, devices int, alpha float64, now time.Time) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	id := fmt.Sprintf("worker-%04d", r.nextID)
	r.workers[id] = &workerEntry{
		id: id, name: name, devices: devices, alpha: alpha,
		state: WorkerAlive, lastBeat: now,
	}
	return id
}

// heartbeat refreshes a worker's liveness, reviving a dead worker (slow,
// not gone). It errors on unknown or departed workers.
func (r *registry) heartbeat(id string, now time.Time) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, err := r.activeLocked(id)
	if err != nil {
		return err
	}
	w.lastBeat = now
	w.state = WorkerAlive
	return nil
}

// activeLocked resolves a worker that can still participate (alive or
// dead-but-revivable). Callers hold r.mu.
func (r *registry) activeLocked(id string) (*workerEntry, error) {
	w, ok := r.workers[id]
	if !ok || w.state == WorkerLeft {
		return nil, fmt.Errorf("%w: %s", ErrUnknownWorker, id)
	}
	return w, nil
}

// active reports whether a worker can still hold leases: registered and
// not departed.
func (r *registry) active(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, err := r.activeLocked(id)
	return err == nil
}

// tally counts a lease outcome against its worker ("completed";
// "expired" and "preempted" as reclaims; released, abandoned and failed
// as failures of the run). Unknown workers are ignored — settlement
// bookkeeping must never fail the settlement itself.
func (r *registry) tally(id, outcome string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if !ok {
		return
	}
	switch outcome {
	case "completed":
		w.completed++
	case "expired":
		w.expired++
	case "preempted": // reclaimed for priority work: no fault of the worker
		w.preempted++
	default: // released, abandoned: a failed run either way
		w.failures++
	}
}

// leave marks a worker departed; the coordinator then releases the leases
// the scheduler's table shows it holding.
func (r *registry) leave(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, err := r.activeLocked(id)
	if err != nil {
		return err
	}
	w.state = WorkerLeft
	return nil
}

// sweepDead marks alive workers silent past deadAfter as dead, and evicts
// dead/departed workers holding no lease once silent past evictAfter.
// Leases are not touched here — lease reclaim is the TTL's job — this only
// keeps the registry's operator view honest and bounded. held is
// Scheduler.HeldLeases.
func (r *registry) sweepDead(now time.Time, held map[string][]*server.Lease) {
	r.mu.Lock()
	defer r.mu.Unlock()
	deadHorizon := now.Add(-r.deadAfter)
	evictHorizon := now.Add(-r.evictAfter)
	for id, w := range r.workers {
		if w.state == WorkerAlive && w.lastBeat.Before(deadHorizon) {
			w.state = WorkerDead
		}
		if w.state != WorkerAlive && len(held[id]) == 0 && w.lastBeat.Before(evictHorizon) {
			delete(r.workers, id)
		}
	}
}

// snapshot renders the registry for the admin surface, workers in
// registration order, each worker's in-flight count read from held
// (Scheduler.HeldLeases).
func (r *registry) snapshot(now time.Time, held map[string][]*server.Lease) []server.FleetWorkerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]server.FleetWorkerStatus, 0, len(r.workers))
	for _, w := range r.workers {
		st := server.FleetWorkerStatus{
			ID: w.id, Name: w.name, Devices: w.devices, Alpha: w.alpha,
			State: w.state, InFlight: len(held[w.id]),
			Completed: w.completed, Failures: w.failures, ExpiredLeases: w.expired,
			PreemptedLeases: w.preempted,
			HeartbeatAgeMS:  float64(now.Sub(w.lastBeat)) / float64(time.Millisecond),
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
