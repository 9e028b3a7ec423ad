package fleet

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
)

// Fleet lifecycle tallies. Registered in the process-global telemetry
// registry; FleetStatus remains the JSON view of the same story.
var (
	fleetRegistrations = telemetry.Default().Counter("easeml_fleet_registrations_total",
		"Worker registrations accepted (re-registrations after eviction included).")
	fleetHeartbeats = telemetry.Default().Counter("easeml_fleet_heartbeats_total",
		"Worker heartbeats processed.")
	fleetLeasePolls = telemetry.Default().Counter("easeml_fleet_lease_polls_total",
		"Lease polls served, whether or not work was granted.")
	fleetLeasesGranted = telemetry.Default().Counter("easeml_fleet_leases_granted_total",
		"Leases handed to remote workers.")
	fleetLeaseExpirations = telemetry.Default().Counter("easeml_fleet_lease_expirations_total",
		"Remote leases reclaimed by TTL expiry.")
	fleetLeasePreemptions = telemetry.Default().Counter("easeml_fleet_lease_preemptions_total",
		"Remote leases reclaimed by priority preemption.")
	fleetCompletes = telemetry.Default().CounterVec("easeml_fleet_completes_total",
		"Remote lease settlements by outcome (completed, released, abandoned, conflict, error).", "outcome")
	fleetLeaves = telemetry.Default().Counter("easeml_fleet_leaves_total",
		"Graceful worker departures.")
)

// ErrBadRequest marks protocol violations the sender must fix rather than
// retry (e.g. a non-positive LeaseRequest.Max, or a result outside the
// valid range); the HTTP surface maps it to 400 with code "bad_request".
var ErrBadRequest = errors.New("fleet: bad request")

// Fleet span operations: the coordinator's grant moment and the worker's
// remote run, both children of the lease's root span.
var (
	opLeaseGrant = telemetry.SpanOp("lease_grant")
	opWorkerRun  = telemetry.SpanOp("worker_run")
)

// CoordinatorConfig parameterizes a Coordinator. Zero values select the
// defaults noted per field.
type CoordinatorConfig struct {
	// LeaseTTL is how long a lease survives without a heartbeat before the
	// sweeper reclaims it (default 10s). It is installed on the scheduler
	// via SetLeaseTTL.
	LeaseTTL time.Duration
	// HeartbeatInterval is the cadence advertised to workers (default
	// LeaseTTL/3, so a worker gets two chances before its leases expire).
	HeartbeatInterval time.Duration
	// SweepInterval is the expiry sweeper's period (default
	// HeartbeatInterval).
	SweepInterval time.Duration
	// DeadAfter is the silence after which a worker is shown as dead in the
	// registry (default 2×LeaseTTL). Purely observational: lease reclaim is
	// the TTL's job.
	DeadAfter time.Duration
	// PollInterval is the idle lease-poll period advertised to workers
	// (default 250ms).
	PollInterval time.Duration
	// Seed is the simulated-training seed advertised at registration so
	// SimExecutor workers reproduce the coordinator's surfaces (default 1;
	// must match the service's ServiceConfig.Seed).
	Seed int64
	// MaxInFlight caps total outstanding leases across the fleet and the
	// in-process engine (default 0: no cap beyond available work).
	MaxInFlight int
	// Clock overrides the time source (tests); it is installed on the
	// scheduler too, so lease expiry and the registry agree on now.
	Clock func() time.Time
	// Logger, when set, receives structured coordinator diagnostics:
	// worker transitions and the lease lifecycle (grant, settle, expiry,
	// preemption), each lease event carrying its trace ID. Nil keeps the
	// coordinator silent.
	Logger *slog.Logger
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = c.LeaseTTL / 3
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.HeartbeatInterval
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 2 * c.LeaseTTL
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Coordinator exposes a scheduler's two-phase lease cycle to remote worker
// agents over HTTP and owns the fleet bookkeeping around it: the worker
// registry, per-worker lease assignment, heartbeat-driven TTL refresh and
// the expiry sweeper that re-queues work whose worker went silent. It
// implements server.FleetControl for the GET /admin/fleet surface.
type Coordinator struct {
	sched *server.Scheduler
	cfg   CoordinatorConfig
	reg   *registry

	// mu guards the remote-lease table and the preemption queues, and
	// serializes lease grants against each other.
	mu     sync.Mutex
	remote map[int]*remoteLease
	// preempted queues lease ids reclaimed by priority preemption per
	// worker, delivered (and cleared) on the worker's next heartbeat so the
	// agent aborts the run immediately instead of discovering the loss via
	// the missing KnownLeases entry. Guarded by mu; Sweep drops queues of
	// workers that are no longer alive.
	preempted map[string][]int

	expiredTotal   atomic.Int64
	preemptedTotal atomic.Int64

	runMu sync.Mutex
	stop  chan struct{}
	done  chan struct{}
}

// remoteLease pairs an outstanding scheduler lease with its holder.
type remoteLease struct {
	lease  *server.Lease
	worker string
}

// NewCoordinator wraps a scheduler. It installs the lease TTL (and the
// test clock, when configured) on the scheduler, so construct the
// coordinator before serving traffic.
func NewCoordinator(sched *server.Scheduler, cfg CoordinatorConfig) *Coordinator {
	// Only a caller-supplied clock is pushed onto the scheduler — the
	// withDefaults fallback must not clobber a clock installed directly
	// via sched.SetClock.
	if cfg.Clock != nil {
		sched.SetClock(cfg.Clock)
	}
	cfg = cfg.withDefaults()
	sched.SetLeaseTTL(cfg.LeaseTTL)
	return &Coordinator{
		sched:     sched,
		cfg:       cfg,
		reg:       newRegistry(cfg.DeadAfter, cfg.Clock),
		remote:    make(map[int]*remoteLease),
		preempted: make(map[string][]int),
	}
}

// Start launches the background expiry sweeper; Stop halts it. Calling
// Start twice is a no-op while the sweeper is running.
func (c *Coordinator) Start() {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	if c.stop != nil {
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go c.sweepLoop(c.stop, c.done)
}

// Stop halts the expiry sweeper and waits for it to exit. Leases and the
// registry are left as they are — a coordinator restart resumes sweeping.
func (c *Coordinator) Stop() {
	c.runMu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.runMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (c *Coordinator) sweepLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(c.cfg.SweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			c.Sweep()
		}
	}
}

// Sweep runs one expiry pass: leases whose TTL lapsed are reclaimed (their
// candidates re-enter selection), attributed to their workers in the
// registry, and silent workers are marked dead. It returns how many leases
// expired. The background sweeper calls it on SweepInterval; tests call it
// directly for deterministic expiry.
func (c *Coordinator) Sweep() int {
	expired, err := c.sched.ExpireLeases()
	if err != nil {
		c.logWarn("logging lease expiry failed", "err", err)
	}
	for _, l := range expired {
		c.mu.Lock()
		delete(c.remote, l.ID)
		c.mu.Unlock()
		c.expiredTotal.Add(1)
		fleetLeaseExpirations.Inc()
		c.reg.leaseSettled(l.Worker, l.ID, "expired")
		c.logInfo("lease expired; candidate re-queued",
			"lease", l.ID, "job", l.JobID, "candidate", l.Candidate.Name(), "worker", l.Worker, "trace", l.Trace)
	}
	c.reg.sweepDead()
	// Drop queued preemption notices for workers that are no longer alive
	// (dead, departed, or evicted): nobody will heartbeat them away, and a
	// reclaimed lease is already conflict-guarded server-side.
	alive := make(map[string]bool)
	for _, w := range c.reg.snapshot() {
		if w.State == WorkerAlive {
			alive[w.ID] = true
		}
	}
	c.mu.Lock()
	for id := range c.preempted {
		if !alive[id] {
			delete(c.preempted, id)
		}
	}
	c.mu.Unlock()
	return len(expired)
}

// Register adds a worker and returns its id plus the protocol cadence.
func (c *Coordinator) Register(req RegisterRequest) RegisterResponse {
	devices := req.Devices
	if devices <= 0 {
		devices = 1
	}
	id := c.reg.register(req.Name, devices, req.Alpha)
	fleetRegistrations.Inc()
	c.logInfo("worker joined", "worker", id, "name", req.Name, "devices", devices)
	return RegisterResponse{
		WorkerID:    id,
		LeaseTTLMS:  float64(c.cfg.LeaseTTL) / float64(time.Millisecond),
		HeartbeatMS: float64(c.cfg.HeartbeatInterval) / float64(time.Millisecond),
		PollMS:      float64(c.cfg.PollInterval) / float64(time.Millisecond),
		Seed:        c.cfg.Seed,
	}
}

// Lease grants up to req.Max new leases to a worker (a request also counts
// as a heartbeat). It is the one grant path: /fleet/lease calls it, and so
// does Complete for a report that embeds a lease request. Every grant is a
// Scheduler.Grant pick. It returns ErrUnknownWorker for ids the registry
// does not know and ErrBadRequest for a non-positive Max.
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	if req.Max <= 0 {
		return LeaseResponse{}, fmt.Errorf("fleet: lease max must be positive, got %d: %w", req.Max, ErrBadRequest)
	}
	if err := c.reg.heartbeat(req.WorkerID); err != nil {
		return LeaseResponse{}, err
	}
	fleetLeasePolls.Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	// The in-flight cap binds: before picking, let priority preemption
	// reclaim a best-effort slot if a guaranteed tenant is starved, so
	// saturation cannot lock high-priority work out of the pool.
	if c.cfg.MaxInFlight > 0 && c.sched.InFlight() >= c.cfg.MaxInFlight {
		c.preemptLocked()
	}
	batch, err := c.sched.Grant(req.Max, c.cfg.MaxInFlight)
	if err != nil {
		return LeaseResponse{}, err
	}
	var resp LeaseResponse
	for _, l := range batch {
		if wl, ok := c.grantLocked(l, req.WorkerID); ok {
			resp.Leases = append(resp.Leases, wl)
		}
	}
	return resp, nil
}

// grantLocked assigns a freshly picked lease to a worker and builds its
// wire form. On bookkeeping failure the lease is handed back rather than
// leaked. Callers hold c.mu.
func (c *Coordinator) grantLocked(l *server.Lease, workerID string) (WireLease, bool) {
	grantT0 := time.Now()
	if c.sched.AssignLease(l, workerID) != nil || c.reg.leaseAssigned(workerID, l.ID) != nil {
		_ = c.sched.Release(l)
		return WireLease{}, false
	}
	c.remote[l.ID] = &remoteLease{lease: l, worker: workerID}
	fleetLeasesGranted.Inc()
	grant := l.ChildSpan(opLeaseGrant, grantT0)
	grant.SetAttr("worker", workerID)
	grant.End()
	name := l.Candidate.Name() // renders once: the grant path is hot
	if c.cfg.Logger != nil {
		c.logInfo("lease granted",
			"lease", l.ID, "job", l.JobID, "candidate", name, "worker", workerID, "trace", l.Trace)
	}
	return WireLease{LeaseID: l.ID, JobID: l.JobID, Candidate: name,
		Trace: l.Trace, Span: l.RootSpanID()}, true
}

// preemptLocked runs one priority-preemption pass against the scheduler:
// when a guaranteed tenant has selectable work, the newest outstanding
// best-effort lease is reclaimed through the expiry mechanics (its
// candidate re-enters selection exactly once; the holder's late report
// bounces off 409). The preempted id is queued for the holder's next
// heartbeat so its agent aborts the run immediately. Callers hold c.mu.
func (c *Coordinator) preemptLocked() {
	victim, err := c.sched.PreemptForPriority()
	if err != nil {
		// The lease is reclaimed either way; only the WAL history append
		// failed.
		c.logWarn("logging preemption failed", "err", err)
	}
	if victim == nil {
		return
	}
	delete(c.remote, victim.ID)
	c.preempted[victim.Worker] = append(c.preempted[victim.Worker], victim.ID)
	c.preemptedTotal.Add(1)
	fleetLeasePreemptions.Inc()
	c.reg.leaseSettled(victim.Worker, victim.ID, "preempted")
	c.logInfo("lease preempted for guaranteed work; candidate re-queued",
		"lease", victim.ID, "job", victim.JobID, "candidate", victim.Candidate.Name(),
		"worker", victim.Worker, "trace", victim.Trace)
}

// Preempt runs one priority-preemption pass directly (tests, and
// operators draining best-effort load by hand); it reports whether a lease
// was preempted. The lease-poll path runs the same pass automatically
// whenever the in-flight cap is saturated.
func (c *Coordinator) Preempt() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.preemptedTotal.Load()
	c.preemptLocked()
	return c.preemptedTotal.Load() > before
}

// Heartbeat refreshes a worker's liveness and the TTLs of the leases it
// reports as still executing; it returns the subset still outstanding
// (a missing id means the lease expired and the run should be aborted)
// plus the ids preempted since the last heartbeat (abort immediately —
// the capacity is already promised to higher-priority work).
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	if err := c.reg.heartbeat(req.WorkerID); err != nil {
		return HeartbeatResponse{}, err
	}
	fleetHeartbeats.Inc()
	var resp HeartbeatResponse
	c.mu.Lock()
	resp.Preempted = c.preempted[req.WorkerID]
	delete(c.preempted, req.WorkerID)
	c.mu.Unlock()
	for _, id := range req.LeaseIDs {
		c.mu.Lock()
		rl, ok := c.remote[id]
		c.mu.Unlock()
		if !ok || rl.worker != req.WorkerID {
			continue
		}
		if err := c.sched.HeartbeatLease(id); err != nil {
			continue // reclaimed between the map read and the refresh
		}
		resp.KnownLeases = append(resp.KnownLeases, id)
	}
	return resp, nil
}

// Complete settles a leased run with the worker's reported outcome through
// server.Scheduler.Settle: success feeds the observation into the
// scheduler; failure releases the lease for retry, or abandons the
// candidate at the scheduler's retry budget. It returns how the lease
// settled, or an error wrapping server.ErrLeaseConflict when the report
// lost a race (double complete, lease expired) — the worker drops those,
// and nothing is granted. A successful report whose accuracy lies outside
// [0, 1] or whose cost is negative is refused with ErrBadRequest before
// anything is claimed or settled: the lease stays outstanding and expires
// on its TTL, so the candidate re-enters selection and trains once. A
// report that embeds a lease request is then served by Lease, after the
// settle: the pick sees the observation that just landed.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	if req.Error == "" && (!(req.Accuracy >= 0 && req.Accuracy <= 1) || !(req.Cost >= 0)) {
		c.logWarn("refusing an out-of-range result",
			"lease", req.LeaseID, "worker", req.WorkerID, "accuracy", req.Accuracy, "cost", req.Cost)
		return CompleteResponse{}, fmt.Errorf("fleet: lease %d: accuracy %g outside [0, 1] or cost %g negative: %w",
			req.LeaseID, req.Accuracy, req.Cost, ErrBadRequest)
	}
	c.mu.Lock()
	rl, ok := c.remote[req.LeaseID]
	if !ok || rl.worker != req.WorkerID {
		c.mu.Unlock()
		fleetCompletes.With("conflict").Inc()
		return CompleteResponse{}, fmt.Errorf("fleet: lease %d is not held by %s: %w", req.LeaseID, req.WorkerID, server.ErrLeaseConflict)
	}
	delete(c.remote, req.LeaseID) // claim: at most one report settles a lease
	l := rl.lease
	c.mu.Unlock()

	// Import the worker's spans into the coordinator's flight recorder, so
	// one GET /admin/traces/{id} serves the whole cross-process tree. Import
	// accepts only spans of this lease's trace (a worker cannot pollute
	// other traces), a bounded number of them, each bounded in size.
	if len(req.Spans) > 0 {
		telemetry.DefaultRecorder().Import(l.Trace, "worker:"+req.WorkerID, req.Spans)
	}

	// One settle rule for every executor: the scheduler decides release
	// versus abandon on its shared per-candidate failure tally, and counts a
	// failure only when the settle succeeds — a report that loses the race
	// against lease expiry burns no retry budget.
	var runErr error
	if req.Error != "" {
		runErr = errors.New(req.Error)
	}
	settled, err := c.sched.Settle(l, req.Accuracy, req.Cost, runErr)
	if err != nil {
		if errors.Is(err, server.ErrLeaseConflict) {
			fleetCompletes.With("conflict").Inc()
		} else {
			// The lease is gone from the scheduler either way (e.g. the job
			// failed mid-settle); count the run against the worker.
			fleetCompletes.With("error").Inc()
			c.reg.leaseSettled(req.WorkerID, req.LeaseID, "failed")
		}
		return CompleteResponse{}, err
	}
	if settled == server.SettledAbandoned {
		c.logInfo("candidate abandoned after repeated failures",
			"job", l.JobID, "candidate", l.Candidate.Name(), "last_error", req.Error, "trace", l.Trace)
	}
	fleetCompletes.With(settled).Inc()
	c.reg.leaseSettled(req.WorkerID, req.LeaseID, settled)
	if c.cfg.Logger != nil {
		c.logInfo("lease settled",
			"lease", req.LeaseID, "outcome", settled, "job", l.JobID, "worker", req.WorkerID, "trace", l.Trace)
	}
	resp := CompleteResponse{Settled: settled}
	if req.Lease == nil {
		return resp, nil
	}
	next := *req.Lease
	next.WorkerID = req.WorkerID
	if granted, err := c.Lease(next); err != nil {
		// The settle is durable and must be acknowledged; the worker sees no
		// lease answer and falls back to polling.
		c.logWarn("lease step of a settle-and-lease failed", "worker", req.WorkerID, "err", err)
	} else {
		resp.Lease = &granted
	}
	return resp, nil
}

// Leave deregisters a worker gracefully: its outstanding leases are
// released (re-queued) immediately instead of waiting out the TTL.
func (c *Coordinator) Leave(workerID string) (int, error) {
	ids, err := c.reg.leave(workerID)
	if err != nil {
		return 0, err
	}
	released := 0
	for _, id := range ids {
		c.mu.Lock()
		rl, ok := c.remote[id]
		delete(c.remote, id)
		c.mu.Unlock()
		if !ok {
			continue
		}
		if err := c.sched.Release(rl.lease); err == nil {
			released++
		}
	}
	fleetLeaves.Inc()
	c.logInfo("worker left", "worker", workerID, "released", released)
	return released, nil
}

// JobInfo resolves a job for a worker: the logged program (from which the
// worker regenerates the candidate surface, like crash recovery does) and
// the expected candidate names.
func (c *Coordinator) JobInfo(jobID string) (JobInfo, error) {
	job, ok := c.sched.Job(jobID)
	if !ok {
		return JobInfo{}, fmt.Errorf("fleet: no job %q", jobID)
	}
	info := JobInfo{ID: job.ID, Name: job.Name, Program: job.Program.String()}
	for _, cand := range job.Candidates {
		info.Candidates = append(info.Candidates, cand.Name())
	}
	return info, nil
}

// FleetStatus implements server.FleetControl for GET /admin/fleet.
func (c *Coordinator) FleetStatus() server.FleetStatus {
	st := server.FleetStatus{
		LeaseTTLMS:      float64(c.cfg.LeaseTTL) / float64(time.Millisecond),
		HeartbeatMS:     float64(c.cfg.HeartbeatInterval) / float64(time.Millisecond),
		ExpiredLeases:   c.expiredTotal.Load(),
		PreemptedLeases: c.preemptedTotal.Load(),
		Workers:         c.reg.snapshot(),
	}
	c.mu.Lock()
	st.RemoteLeases = len(c.remote)
	c.mu.Unlock()
	for _, w := range st.Workers {
		switch w.State {
		case WorkerAlive:
			st.Alive++
		case WorkerDead:
			st.Dead++
		case WorkerLeft:
			st.Left++
		}
	}
	return st
}

// logInfo and logWarn emit structured coordinator diagnostics when a
// Logger is configured; a nil Logger keeps the coordinator silent.
func (c *Coordinator) logInfo(msg string, args ...any) {
	if c.cfg.Logger != nil {
		c.cfg.Logger.Info(msg, args...)
	}
}

func (c *Coordinator) logWarn(msg string, args ...any) {
	if c.cfg.Logger != nil {
		c.cfg.Logger.Warn(msg, args...)
	}
}
