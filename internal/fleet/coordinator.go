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
// defaults noted per field. The rest of the cadence follows from LeaseTTL:
// workers heartbeat every LeaseTTL/3 (two chances before a lease expires),
// the sweeper runs on the same period, a worker silent for 2×LeaseTTL is
// shown dead, and idle workers poll every 250ms.
type CoordinatorConfig struct {
	// LeaseTTL is how long a lease survives without a heartbeat before the
	// sweeper reclaims it (default 10s).
	LeaseTTL time.Duration
	// Seed is the simulated-training seed advertised at registration so
	// SimExecutor workers reproduce the coordinator's surfaces (default 1;
	// must match the service's ServiceConfig.Seed).
	Seed int64
	// MaxInFlight caps total outstanding leases across the fleet and the
	// in-process engine (default 0: no cap beyond available work).
	MaxInFlight int
	// Logger, when set, receives structured coordinator diagnostics:
	// worker transitions and the lease lifecycle (grant, settle, expiry,
	// preemption), each lease event carrying its trace ID. Nil keeps the
	// coordinator silent.
	Logger *slog.Logger
}

// pollInterval is the idle lease-poll period advertised to workers.
const pollInterval = 250 * time.Millisecond

// Coordinator exposes a scheduler's two-phase lease cycle to remote worker
// agents over HTTP and owns the fleet bookkeeping around it: the worker
// registry, heartbeat-driven TTL refresh and the expiry sweeper that
// re-queues work whose worker went silent. Which worker holds which lease
// is the scheduler's lease table alone. It implements server.FleetControl
// for the GET /admin/fleet surface.
type Coordinator struct {
	sched *server.Scheduler
	cfg   CoordinatorConfig
	reg   *registry
	// now is the one clock of lease deadlines, expiry and the registry.
	now func() time.Time

	// mu serializes lease grants, and the preemption pass before each,
	// against each other.
	mu sync.Mutex

	expiredTotal   atomic.Int64
	preemptedTotal atomic.Int64

	runMu sync.Mutex
	stop  chan struct{}
	done  chan struct{}
}

// NewCoordinator wraps a scheduler.
func NewCoordinator(sched *server.Scheduler, cfg CoordinatorConfig) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Coordinator{sched: sched, cfg: cfg, reg: newRegistry(2 * cfg.LeaseTTL), now: time.Now}
}

// heartbeatInterval is the heartbeat period advertised to workers and the
// sweeper's period.
func (c *Coordinator) heartbeatInterval() time.Duration { return c.cfg.LeaseTTL / 3 }

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
	ticker := time.NewTicker(c.heartbeatInterval())
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
// expired. The background sweeper calls it every heartbeat interval; tests
// call it directly for deterministic expiry.
func (c *Coordinator) Sweep() int {
	expired, err := c.sched.ExpireLeases(c.now())
	if err != nil {
		c.logWarn("logging lease expiry failed", "err", err)
	}
	for _, l := range expired {
		c.expiredTotal.Add(1)
		fleetLeaseExpirations.Inc()
		c.reg.tally(l.Worker, "expired")
		c.logInfo("lease expired; candidate re-queued",
			"lease", l.ID, "job", l.JobID, "candidate", l.Candidate.Name(), "worker", l.Worker, "trace", l.Trace)
	}
	c.reg.sweepDead(c.now(), c.sched.HeldLeases())
	return len(expired)
}

// Register adds a worker and returns its id plus the protocol cadence.
func (c *Coordinator) Register(req RegisterRequest) RegisterResponse {
	devices := req.Devices
	if devices <= 0 {
		devices = 1
	}
	id := c.reg.register(req.Name, devices, req.Alpha, c.now())
	fleetRegistrations.Inc()
	c.logInfo("worker joined", "worker", id, "name", req.Name, "devices", devices)
	return RegisterResponse{
		WorkerID:    id,
		LeaseTTLMS:  float64(c.cfg.LeaseTTL) / float64(time.Millisecond),
		HeartbeatMS: float64(c.heartbeatInterval()) / float64(time.Millisecond),
		PollMS:      float64(pollInterval) / float64(time.Millisecond),
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
	if err := c.reg.heartbeat(req.WorkerID, c.now()); err != nil {
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
// wire form. A worker that left after the request's liveness check gets
// nothing: Leave marks the worker left before it collects the worker's
// leases, so the lease is handed back here or there, never kept by a
// departed worker. Callers hold c.mu.
func (c *Coordinator) grantLocked(l *server.Lease, workerID string) (WireLease, bool) {
	grantT0 := time.Now()
	if c.sched.AssignLease(l, workerID, c.now().Add(c.cfg.LeaseTTL)) != nil || !c.reg.active(workerID) {
		_ = c.sched.Release(l)
		return WireLease{}, false
	}
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
// bounces off 409). The holder learns of it on its next heartbeat, whose
// KnownLeases no longer lists the lease. Callers hold c.mu.
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
	c.preemptedTotal.Add(1)
	fleetLeasePreemptions.Inc()
	c.reg.tally(victim.Worker, "preempted")
	c.logInfo("lease preempted for guaranteed work; candidate re-queued",
		"lease", victim.ID, "job", victim.JobID, "candidate", victim.Candidate.Name(),
		"worker", victim.Worker, "trace", victim.Trace)
}

// Heartbeat refreshes a worker's liveness and the TTLs of the leases it
// reports as still executing; it returns the subset it still holds. A
// missing id means the lease was reclaimed (expired or preempted) and the
// run should be aborted.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	if err := c.reg.heartbeat(req.WorkerID, c.now()); err != nil {
		return HeartbeatResponse{}, err
	}
	fleetHeartbeats.Inc()
	var resp HeartbeatResponse
	expires := c.now().Add(c.cfg.LeaseTTL)
	for _, id := range req.LeaseIDs {
		if c.sched.HeartbeatLease(id, req.WorkerID, expires) == nil {
			resp.KnownLeases = append(resp.KnownLeases, id)
		}
	}
	return resp, nil
}

// maxCostFactor bounds a reported cost by the candidate's estimate: a run
// the trainer prices at c that reports more than maxCostFactor·c is a lie
// (a finite 1e308 would otherwise exhaust its tenant's budget and skew
// every cost-aware pick that reads the tally).
const maxCostFactor = 100

// Complete settles a leased run with the worker's reported outcome through
// server.Scheduler.Settle: success feeds the observation into the
// scheduler; failure releases the lease for retry, or abandons the
// candidate at the scheduler's retry budget. It returns how the lease
// settled, or an error wrapping server.ErrLeaseConflict when the report
// lost a race (double complete, lease expired) — the worker drops those,
// and nothing is granted. A successful report whose accuracy lies outside
// [0, 1], or whose cost is negative or more than maxCostFactor times the
// candidate's estimated cost, is refused with ErrBadRequest before
// anything settles: the lease stays outstanding and expires
// on its TTL, so the candidate re-enters selection and trains once. A
// report that embeds a lease request is then served by Lease, after the
// settle: the pick sees the observation that just landed.
//
// The settle's model record is enqueued, not waited for, when the answer
// grants a lease: the worker's next run overlaps the fsync, and the answer
// carries the record's seq and the log's durable horizon, so the worker
// counts the settle once some answer's horizon reaches it. An answer that
// grants nothing waits for the record's fsync first.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	if req.Error == "" && (!(req.Accuracy >= 0 && req.Accuracy <= 1) || !(req.Cost >= 0)) {
		c.logWarn("refusing an out-of-range result",
			"lease", req.LeaseID, "worker", req.WorkerID, "accuracy", req.Accuracy, "cost", req.Cost)
		return CompleteResponse{}, fmt.Errorf("fleet: lease %d: accuracy %g outside [0, 1] or cost %g negative: %w",
			req.LeaseID, req.Accuracy, req.Cost, ErrBadRequest)
	}
	l := c.sched.HeldLease(req.LeaseID, req.WorkerID)
	if l == nil {
		fleetCompletes.With("conflict").Inc()
		return CompleteResponse{}, fmt.Errorf("fleet: lease %d is not held by %s: %w", req.LeaseID, req.WorkerID, server.ErrLeaseConflict)
	}
	if req.Error == "" {
		est, err := c.sched.Trainer().EstimateCost(l.JobID, l.Candidate)
		if err == nil && req.Cost > maxCostFactor*est {
			c.logWarn("refusing a cost far beyond the estimate",
				"lease", req.LeaseID, "worker", req.WorkerID, "cost", req.Cost, "estimate", est)
			return CompleteResponse{}, fmt.Errorf("fleet: lease %d: cost %g is over %d× the estimated %g: %w",
				req.LeaseID, req.Cost, maxCostFactor, est, ErrBadRequest)
		}
	}

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
	settled, commit, err := c.sched.SettleEnqueued(l, req.Accuracy, req.Cost, runErr)
	if err != nil {
		if errors.Is(err, server.ErrLeaseConflict) {
			fleetCompletes.With("conflict").Inc()
		} else {
			// The lease is gone from the scheduler either way (e.g. the job
			// failed mid-settle); count the run against the worker.
			fleetCompletes.With("error").Inc()
			c.reg.tally(req.WorkerID, "failed")
		}
		return CompleteResponse{}, err
	}
	if settled == server.SettledAbandoned {
		c.logInfo("candidate abandoned after repeated failures",
			"job", l.JobID, "candidate", l.Candidate.Name(), "last_error", req.Error, "trace", l.Trace)
	}
	fleetCompletes.With(settled).Inc()
	c.reg.tally(req.WorkerID, settled)
	if c.cfg.Logger != nil {
		c.logInfo("lease settled",
			"lease", req.LeaseID, "outcome", settled, "job", l.JobID, "worker", req.WorkerID, "trace", l.Trace)
	}
	resp := CompleteResponse{Settled: settled, Seq: commit.Seq}
	if req.Lease != nil {
		next := *req.Lease
		next.WorkerID = req.WorkerID
		if granted, err := c.Lease(next); err != nil {
			// The settle went through and must be acknowledged; the worker
			// sees no lease answer and falls back to polling.
			c.logWarn("lease step of a settle-and-lease failed", "worker", req.WorkerID, "err", err)
		} else {
			resp.Lease = &granted
		}
	}
	if resp.Lease == nil || len(resp.Lease.Leases) == 0 {
		// No next run to overlap the fsync with: acknowledge it durable.
		if err := commit.Wait(); err != nil {
			return CompleteResponse{}, err
		}
	}
	resp.Durable = c.sched.DurableSeq()
	return resp, nil
}

// Leave deregisters a worker gracefully: its outstanding leases are
// released (re-queued) immediately instead of waiting out the TTL. It
// answers once every WAL record enqueued before it is durable, with the
// durable horizon, so the worker can count its last settles.
func (c *Coordinator) Leave(workerID string) (LeaveResponse, error) {
	// Marked left first: a grant racing this leave either sees the mark
	// and hands its lease back, or assigned it before the mark and so
	// before the collection below.
	if err := c.reg.leave(workerID); err != nil {
		return LeaveResponse{}, err
	}
	released := 0
	for _, l := range c.sched.HeldLeases()[workerID] {
		if c.sched.Release(l) == nil {
			released++
		}
	}
	fleetLeaves.Inc()
	c.logInfo("worker left", "worker", workerID, "released", released)
	durable, err := c.sched.SyncLog()
	if err != nil {
		return LeaveResponse{}, fmt.Errorf("fleet: leave of %s: %w", workerID, err)
	}
	return LeaveResponse{Released: released, Durable: durable}, nil
}

// JobInfo resolves a job for a worker: the logged program (from which the
// worker regenerates the candidate surface, like crash recovery does) and
// the expected candidate names.
func (c *Coordinator) JobInfo(jobID string) (JobInfo, error) {
	job, ok := c.sched.Job(jobID)
	if !ok {
		return JobInfo{}, fmt.Errorf("fleet: no job %q", jobID)
	}
	return JobInfo{ID: job.ID, Name: job.Name, Program: job.ProgramString(), Candidates: job.CandidateNames()}, nil
}

// FleetStatus implements server.FleetControl for GET /admin/fleet. The
// lease counts are read from the scheduler's lease table.
func (c *Coordinator) FleetStatus() server.FleetStatus {
	held := c.sched.HeldLeases()
	st := server.FleetStatus{
		LeaseTTLMS:      float64(c.cfg.LeaseTTL) / float64(time.Millisecond),
		HeartbeatMS:     float64(c.heartbeatInterval()) / float64(time.Millisecond),
		ExpiredLeases:   c.expiredTotal.Load(),
		PreemptedLeases: c.preemptedTotal.Load(),
		Workers:         c.reg.snapshot(c.now(), held),
	}
	for _, ls := range held {
		st.RemoteLeases += len(ls)
	}
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
