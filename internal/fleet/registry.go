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
	id         string
	name       string
	devices    int
	alpha      float64
	state      string
	registered time.Time
	lastBeat   time.Time
	inFlight   map[int]bool // outstanding lease ids
	completed  int64
	failures   int64
	expired    int64
	preempted  int64
}

// registry tracks the fleet's workers: join/leave/dead transitions, per-
// worker in-flight leases and failure tallies. It is the bookkeeping half
// of the coordinator; lease state itself lives in the scheduler.
type registry struct {
	mu        sync.Mutex
	now       func() time.Time
	deadAfter time.Duration // silence before a worker is marked dead
	// evictAfter bounds registry growth: departed and dead workers with no
	// in-flight leases are dropped entirely once silent this long, so
	// re-register churn (every coordinator blip adds a fresh worker id)
	// cannot grow the registry and the /admin/fleet payload forever.
	evictAfter time.Duration
	nextID     int
	workers    map[string]*workerEntry
}

func newRegistry(deadAfter time.Duration, now func() time.Time) *registry {
	evictAfter := 10 * deadAfter
	if evictAfter < 5*time.Minute {
		// A floor keeps just-departed workers visible to operators (and
		// deterministic in fast tests) regardless of how short the TTL is.
		evictAfter = 5 * time.Minute
	}
	return &registry{now: now, deadAfter: deadAfter, evictAfter: evictAfter, workers: make(map[string]*workerEntry)}
}

// register adds a worker and returns its assigned id.
func (r *registry) register(name string, devices int, alpha float64) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	id := fmt.Sprintf("worker-%04d", r.nextID)
	now := r.now()
	r.workers[id] = &workerEntry{
		id: id, name: name, devices: devices, alpha: alpha,
		state: WorkerAlive, registered: now, lastBeat: now,
		inFlight: make(map[int]bool),
	}
	return id
}

// heartbeat refreshes a worker's liveness, reviving a dead worker (slow,
// not gone). It errors on unknown or departed workers.
func (r *registry) heartbeat(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, err := r.activeLocked(id)
	if err != nil {
		return err
	}
	w.lastBeat = r.now()
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

// leaseAssigned records a lease handed to a worker (which also proves the
// worker is talking to us — refresh its liveness).
func (r *registry) leaseAssigned(id string, leaseID int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, err := r.activeLocked(id)
	if err != nil {
		return err
	}
	w.inFlight[leaseID] = true
	w.lastBeat = r.now()
	w.state = WorkerAlive
	return nil
}

// leaseSettled drops a lease from a worker's in-flight set and tallies the
// outcome ("completed", "released"/"abandoned" count as failures of the
// run, "expired" as a reclaim). Unknown workers are ignored — settlement
// bookkeeping must never fail the settlement itself.
func (r *registry) leaseSettled(id string, leaseID int, outcome string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if !ok {
		return
	}
	delete(w.inFlight, leaseID)
	switch outcome {
	case "completed":
		w.completed++
	case "expired":
		w.expired++
	case "preempted": // reclaimed for priority work: no fault of the worker
		w.preempted++
	case "withdrawn": // granted by a Lease call that then failed: never a run
	default: // released, abandoned: a failed run either way
		w.failures++
	}
}

// leave marks a worker departed and returns its outstanding lease ids for
// the coordinator to release.
func (r *registry) leave(id string) ([]int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, err := r.activeLocked(id)
	if err != nil {
		return nil, err
	}
	w.state = WorkerLeft
	ids := make([]int, 0, len(w.inFlight))
	for leaseID := range w.inFlight {
		ids = append(ids, leaseID)
	}
	w.inFlight = make(map[int]bool)
	sort.Ints(ids)
	return ids, nil
}

// sweepDead marks alive workers silent past deadAfter as dead, and evicts
// dead/departed workers with nothing in flight once silent past
// evictAfter. Leases are not touched here — lease reclaim is the TTL's job
// — this only keeps the registry's operator view honest and bounded.
func (r *registry) sweepDead() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.deadAfter <= 0 {
		return
	}
	now := r.now()
	deadHorizon := now.Add(-r.deadAfter)
	evictHorizon := now.Add(-r.evictAfter)
	for id, w := range r.workers {
		if w.state == WorkerAlive && w.lastBeat.Before(deadHorizon) {
			w.state = WorkerDead
		}
		if w.state != WorkerAlive && len(w.inFlight) == 0 && w.lastBeat.Before(evictHorizon) {
			delete(r.workers, id)
		}
	}
}

// snapshot renders the registry for the admin surface, workers in
// registration order.
func (r *registry) snapshot() []server.FleetWorkerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	out := make([]server.FleetWorkerStatus, 0, len(r.workers))
	for _, w := range r.workers {
		st := server.FleetWorkerStatus{
			ID: w.id, Name: w.name, Devices: w.devices, Alpha: w.alpha,
			State: w.state, InFlight: len(w.inFlight),
			Completed: w.completed, Failures: w.failures, ExpiredLeases: w.expired,
			PreemptedLeases: w.preempted,
			HeartbeatAgeMS:  float64(now.Sub(w.lastBeat)) / float64(time.Millisecond),
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
