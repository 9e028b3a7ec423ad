package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsl"
	"repro/internal/telemetry"
	"repro/internal/templates"
)

// AgentConfig parameterizes a worker agent. Zero values select the
// defaults noted per field.
type AgentConfig struct {
	// Coordinator is the coordinator's base URL (required), e.g.
	// "http://coordinator:9001".
	Coordinator string
	// Name is the operator-facing worker name (default: the hostname).
	Name string
	// Devices is how many leases the agent executes concurrently
	// (default 1).
	Devices int
	// Alpha is the advertised multi-device scaling exponent (default 0.9).
	Alpha float64
	// Executor runs the leased candidates. Nil selects a SimExecutor on
	// the coordinator-advertised seed — the default trainsim substrate,
	// which reproduces the coordinator's surfaces exactly.
	Executor Executor
	// HTTPClient overrides the protocol transport (default
	// http.DefaultClient; per-request deadlines come from contexts, so no
	// global timeout is imposed).
	HTTPClient *http.Client
	// PollInterval overrides the coordinator-advertised idle poll period.
	PollInterval time.Duration
	// HeartbeatInterval overrides the coordinator-advertised heartbeat
	// period.
	HeartbeatInterval time.Duration
	// SkipLeaveOnExit suppresses the graceful /fleet/leave on shutdown, so
	// outstanding leases wait out their TTL instead of being re-queued
	// immediately — the behaviour of a crashed worker (tests and the
	// kill-a-worker demo use it; real agents should leave gracefully).
	SkipLeaveOnExit bool
	// Logger, when set, receives structured agent diagnostics; run
	// lifecycle events carry the lease's trace ID. Nil keeps the agent
	// silent.
	Logger *slog.Logger
}

// Agent is one fleet worker: it registers with the coordinator, polls for
// leases, executes them through the configured Executor with Devices-way
// concurrency, streams heartbeats, and reports results — each report asking
// for the slot's next lease in the same round trip. Run drives the
// whole lifecycle; an agent whose context is cancelled leaves gracefully
// (unless SkipLeaveOnExit), releasing its leases for immediate re-queueing.
type Agent struct {
	cfg    AgentConfig
	client *protoClient

	heartbeatEvery time.Duration
	pollEvery      time.Duration

	// regMu single-flights (re-)registration: the poll loop and the
	// heartbeat loop can both see unknown_worker after a coordinator
	// restart, and racing registrations would leave a ghost worker id in
	// the registry.
	regMu sync.Mutex

	mu       sync.Mutex
	workerID string
	epoch    int // bumped on each (re-)registration
	// exec is the live executor; ownExec marks the agent-built default
	// (SimExecutor on the coordinator's seed), which is rebuilt on every
	// re-registration in case the coordinator came back with a new seed.
	exec    Executor
	ownExec bool
	// jobs caches each job's candidate surface. It is dropped on
	// re-registration: after a coordinator restart a recycled job id may
	// name a different program, and stale candidates would corrupt results.
	jobs map[string]map[string]templates.Candidate // job → candidate name → candidate
	// running holds the run-context abort of every lease the agent owns,
	// from the moment its grant is adopted until its report settles: the
	// heartbeat's lease ids and the free-slot count.
	running map[int]context.CancelFunc

	slotFree chan struct{} // kicks the poll loop when an execution settles

	completed atomic.Int64
	failed    atomic.Int64
}

// NewAgent validates the configuration and builds an agent (not yet
// registered; Run does that).
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("fleet: AgentConfig.Coordinator is required")
	}
	if cfg.Devices <= 0 {
		cfg.Devices = 1
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.9
	}
	if cfg.Name == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		cfg.Name = host
	}
	return &Agent{
		cfg:      cfg,
		client:   newProtoClient(cfg.Coordinator, cfg.HTTPClient),
		exec:     cfg.Executor,
		ownExec:  cfg.Executor == nil,
		jobs:     make(map[string]map[string]templates.Candidate),
		running:  make(map[int]context.CancelFunc),
		slotFree: make(chan struct{}, 1),
	}, nil
}

// slot is one device slot's current run: a granted lease with the
// registration it was granted under and its run context.
type slot struct {
	workerID string
	epoch    int
	exec     Executor
	lease    WireLease
	runCtx   context.Context
}

// Completed returns how many runs the agent has reported successfully.
func (a *Agent) Completed() int64 { return a.completed.Load() }

// Failed returns how many runs ended in an executor error.
func (a *Agent) Failed() int64 { return a.failed.Load() }

// WorkerID returns the coordinator-assigned id (empty before the first
// registration succeeds).
func (a *Agent) WorkerID() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.workerID
}

// Run executes the agent until ctx is cancelled: register, then loop
// polling for leases and executing them, with a background heartbeat
// stream. It returns nil on a clean shutdown and the registration error
// when the coordinator is never reachable.
func (a *Agent) Run(ctx context.Context) error {
	if err := a.register(ctx); err != nil {
		return err
	}

	hbCtx, stopHB := context.WithCancel(ctx)
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		a.heartbeatLoop(hbCtx)
	}()

	var execWG sync.WaitGroup
	idle := 0 // consecutive empty polls; drives the jittered backoff
	for ctx.Err() == nil {
		granted := a.pollOnce(ctx, &execWG)
		if ctx.Err() != nil {
			break
		}
		if granted {
			idle = 0
			continue // slots may still be free; poll again immediately
		}
		idle++
		timer := time.NewTimer(idleBackoff(a.pollEvery, idle))
		select {
		case <-ctx.Done():
			timer.Stop()
		case <-a.slotFree:
			timer.Stop()
		case <-timer.C:
		}
	}

	// Shutdown: abort in-flight executions, stop heartbeating, and (unless
	// configured to die hard) hand the leases back so they re-queue now
	// rather than at TTL expiry.
	a.mu.Lock()
	for _, cancel := range a.running {
		cancel()
	}
	a.mu.Unlock()
	execWG.Wait()
	stopHB()
	hbDone.Wait()
	if !a.cfg.SkipLeaveOnExit {
		leaveCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := a.client.leave(leaveCtx, a.WorkerID()); err != nil {
			a.logWarn("leave failed", "name", a.cfg.Name, "err", err)
		}
	}
	return nil
}

// register joins the fleet (retrying until ctx is cancelled) and adopts
// the advertised cadence and seed. Concurrent callers coalesce: whoever
// arrives while a registration is in flight waits for it and reuses its
// result instead of registering a second worker id.
func (a *Agent) register(ctx context.Context) error {
	a.mu.Lock()
	before := a.epoch
	a.mu.Unlock()
	a.regMu.Lock()
	defer a.regMu.Unlock()
	a.mu.Lock()
	done := a.epoch != before // someone re-registered while we waited
	a.mu.Unlock()
	if done {
		return nil
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("fleet: registering with %s: %w", a.cfg.Coordinator, lastErr)
			}
			return err
		}
		resp, err := a.client.register(ctx, RegisterRequest{
			Name: a.cfg.Name, Devices: a.cfg.Devices, Alpha: a.cfg.Alpha,
		})
		if err == nil {
			a.adoptRegistration(resp)
			a.logInfo("registered with coordinator",
				"name", a.cfg.Name, "worker", resp.WorkerID, "heartbeat", a.heartbeatEvery, "poll", a.pollEvery)
			return nil
		}
		lastErr = err
		delay := time.Duration(attempt+1) * 100 * time.Millisecond
		if delay > time.Second {
			delay = time.Second
		}
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
		case <-timer.C:
		}
	}
}

// adoptRegistration installs a registration reply: worker id, cadence, and
// the default executor on the coordinator's seed. Registering again (after
// the coordinator evicted us) aborts every run held under the old id —
// their leases are no longer ours to settle — and drops all per-job state:
// a restarted coordinator may recycle job ids for different programs or
// advertise a different seed, so the candidate cache and the agent-owned
// executor are rebuilt from scratch. Only the cadence is kept from the
// first registration (Run's poll loop and the heartbeat ticker read it
// lock-free).
func (a *Agent) adoptRegistration(resp RegisterResponse) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.workerID = resp.WorkerID
	a.epoch++
	for _, cancel := range a.running {
		cancel()
	}
	if a.ownExec {
		a.exec = NewSimExecutor(resp.Seed)
	}
	a.jobs = make(map[string]map[string]templates.Candidate)
	if a.epoch > 1 {
		return
	}
	a.heartbeatEvery = a.cfg.HeartbeatInterval
	if a.heartbeatEvery <= 0 {
		a.heartbeatEvery = time.Duration(resp.HeartbeatMS * float64(time.Millisecond))
	}
	if a.heartbeatEvery <= 0 {
		a.heartbeatEvery = time.Second
	}
	a.pollEvery = a.cfg.PollInterval
	if a.pollEvery <= 0 {
		a.pollEvery = time.Duration(resp.PollMS * float64(time.Millisecond))
	}
	if a.pollEvery <= 0 {
		a.pollEvery = 250 * time.Millisecond
	}
}

// pollOnce asks for leases up to the free device count and starts a slot
// per grant; it reports whether any lease was granted. It serves the slots
// with nothing to report — cold start, idle, a failed resolve; a slot that
// just finished a run asks for its next one inside its report instead.
func (a *Agent) pollOnce(ctx context.Context, execWG *sync.WaitGroup) bool {
	a.mu.Lock()
	free := a.cfg.Devices - len(a.running)
	workerID, epoch, exec := a.workerID, a.epoch, a.exec
	a.mu.Unlock()
	if free <= 0 {
		return false
	}
	resp, err := a.client.lease(ctx, LeaseRequest{WorkerID: workerID, Max: free})
	if err != nil {
		if IsCode(err, CodeUnknownWorker) {
			a.logInfo("coordinator does not know us; re-registering", "name", a.cfg.Name)
			_ = a.register(ctx)
		} else if ctx.Err() == nil {
			a.logWarn("lease poll failed", "name", a.cfg.Name, "err", err)
		}
		return false
	}
	started := a.adopt(ctx, slot{workerID: workerID, epoch: epoch, exec: exec}, 0, resp)
	for _, s := range started {
		execWG.Add(1)
		go func(s slot) {
			defer execWG.Done()
			a.runSlot(ctx, s)
		}(s)
	}
	return len(started) > 0
}

// adopt installs the granted leases of one coordinator answer and retires
// the lease whose report carried the request (done; 0 for a poll), all in
// one critical section: the new lease enters running as the old one leaves,
// so heartbeats and the free-slot count never see a gap. It returns a slot
// per adopted lease, each with its own run context. from names the
// registration the request was sent under: if the agent re-registered in
// the meantime the leases belong to the old worker id, so they are dropped
// (they come back through expiry). Leases arriving after shutdown began are
// dropped too — the graceful leave (or the TTL) hands them back.
func (a *Agent) adopt(ctx context.Context, from slot, done int, resp LeaseResponse) []slot {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cancel, ok := a.running[done]; ok {
		cancel() // the run is over; this only frees its context
		delete(a.running, done)
	}
	if a.epoch != from.epoch || ctx.Err() != nil {
		return nil
	}
	started := make([]slot, len(resp.Leases))
	for i, wl := range resp.Leases {
		runCtx, cancel := context.WithCancel(ctx)
		a.running[wl.LeaseID] = cancel
		started[i] = from
		started[i].lease, started[i].runCtx = wl, runCtx
	}
	return started
}

// idleBackoff is the delay before the next poll after the streak-th
// consecutive empty one: base·2^(streak−1), capped at 16×base, with ±25%
// jitter so an idle fleet's polls spread out instead of hammering the
// coordinator in lockstep. Any grant resets the streak, and a settling
// local run still wakes the loop immediately via slotFree.
func idleBackoff(base time.Duration, streak int) time.Duration {
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	d := base
	for i := 1; i < streak && d < 16*base; i++ {
		d *= 2
	}
	if d > 16*base {
		d = 16 * base
	}
	return time.Duration(float64(d) * (0.75 + 0.5*rand.Float64()))
}

// runSlot drives one device slot: run the lease, report it with the ask for
// the next one embedded, and chain straight into the lease the answer
// carries — one round trip per cycle. The slot ends (and the poll loop is
// kicked) when there is nothing to chain into: no grant, a lost lease, a
// failed report, shutdown.
func (a *Agent) runSlot(ctx context.Context, s slot) {
	for {
		next, ok := a.runLease(ctx, s)
		if !ok {
			select {
			case a.slotFree <- struct{}{}:
			default:
			}
			return
		}
		s = next
	}
}

// runLease resolves, executes and reports one lease, and returns the slot's
// next run when the report's answer granted one. The lease stays in the
// running set — and therefore in the heartbeat's LeaseIDs, keeping its TTL
// refreshed — until the report settles, so a transient coordinator outage
// during report retries cannot expire a lease whose work is already done.
// A run whose context was cancelled (lease lost, shutdown) is not reported:
// its lease is either already reclaimed or about to be released by the
// graceful leave.
func (a *Agent) runLease(ctx context.Context, s slot) (slot, bool) {
	wl := s.lease
	// The run span parents to the lease's root span on the coordinator
	// (wl.Span) and ships back inside the completion report, so the
	// coordinator's flight recorder holds the whole cross-process tree.
	run := telemetry.SpanAt(wl.Trace, wl.Span, opWorkerRun, time.Now())
	run.SetAttr("job", wl.JobID)
	run.SetAttr("candidate", wl.Candidate)
	run.SetAttr("worker", a.cfg.Name)
	req := CompleteRequest{WorkerID: s.workerID, LeaseID: wl.LeaseID}

	cand, err := a.resolveCandidate(s.runCtx, s.exec, s.epoch, wl.JobID, wl.Candidate)
	resolved := err == nil
	if resolved {
		req.Accuracy, req.Cost, err = s.exec.Execute(s.runCtx, wl.JobID, cand)
	}
	if s.runCtx.Err() != nil {
		run.SetAttr("outcome", "aborted")
		run.End()
		a.adopt(ctx, s, wl.LeaseID, LeaseResponse{})
		return slot{}, false
	}
	if err != nil {
		req.Error = err.Error()
		run.Fail(err)
		if resolved {
			a.failed.Add(1)
			a.logWarn("run failed",
				"job", wl.JobID, "candidate", wl.Candidate, "lease", wl.LeaseID, "trace", wl.Trace, "err", err)
		}
	} else {
		run.SetAttr("accuracy", strconv.FormatFloat(req.Accuracy, 'g', -1, 64))
		run.SetAttr("cost", strconv.FormatFloat(req.Cost, 'g', -1, 64))
	}
	run.End()
	req.Spans = []telemetry.SpanData{run.Data()}
	// Unresolvable work is reported so the coordinator can retry it
	// elsewhere (or abandon it), but asks for nothing: whatever broke the
	// resolve would likely break the next one, so the slot goes back to the
	// poll loop and its backoff.
	if resolved {
		req.Lease = &LeaseRequest{WorkerID: s.workerID, Max: 1}
	}

	resp, ok := a.report(req, wl.Trace)
	if ok && err == nil {
		// Counted only once the coordinator accepted the result, so
		// Completed agrees with the registry's per-worker tally (a report
		// that lost a settle race settled nothing).
		a.completed.Add(1)
		a.logInfo("run completed",
			"job", wl.JobID, "candidate", wl.Candidate, "lease", wl.LeaseID,
			"accuracy", req.Accuracy, "cost", req.Cost, "trace", wl.Trace)
	}
	var answer LeaseResponse
	if resp.Lease != nil {
		answer = *resp.Lease
	}
	if started := a.adopt(ctx, s, wl.LeaseID, answer); len(started) > 0 {
		return started[0], true
	}
	return slot{}, false
}

// report delivers a completion, retrying transient transport failures; a
// 409 (the report lost a settle race) is dropped silently — by protocol
// the result belongs to whoever settled first. The lease's trace ID rides
// the X-Easeml-Trace header so the coordinator sees the same trace. It
// returns the coordinator's answer and whether the result was accepted.
func (a *Agent) report(req CompleteRequest, trace string) (CompleteResponse, bool) {
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithTimeout(telemetry.WithTraceID(context.Background(), trace), 5*time.Second)
		resp, err := a.client.complete(ctx, req)
		cancel()
		if err == nil {
			return resp, true
		}
		var pe *ProtocolError
		if errors.As(err, &pe) {
			if pe.Status == 409 {
				a.logInfo("settle race lost; dropping report",
					"lease", req.LeaseID, "code", pe.Code, "trace", trace)
			} else {
				a.logWarn("report rejected", "lease", req.LeaseID, "trace", trace, "err", err)
			}
			return CompleteResponse{}, false // a definitive server answer: retrying cannot change it
		}
		a.logWarn("report attempt failed", "lease", req.LeaseID, "attempt", attempt+1, "trace", trace, "err", err)
		time.Sleep(time.Duration(attempt+1) * 50 * time.Millisecond)
	}
	return CompleteResponse{}, false
}

// resolveCandidate maps a wire candidate name to the full candidate,
// fetching and registering the job's surface (with the epoch's executor)
// on first contact. The candidate list is regenerated from the job's
// logged program — the same deterministic derivation crash recovery uses —
// so indices and normalization variants line up with the coordinator's. A
// re-registration racing the fetch invalidates the result: the new epoch's
// cache must only ever hold candidates resolved under it.
func (a *Agent) resolveCandidate(ctx context.Context, exec Executor, epoch int, jobID, name string) (templates.Candidate, error) {
	a.mu.Lock()
	byName, ok := a.jobs[jobID]
	a.mu.Unlock()
	if !ok {
		info, err := a.client.jobInfo(ctx, jobID)
		if err != nil {
			return templates.Candidate{}, err
		}
		prog, err := dsl.ParseCached(info.Program)
		if err != nil {
			return templates.Candidate{}, fmt.Errorf("fleet: parsing program of %s: %w", jobID, err)
		}
		cands, _, err := templates.GenerateCached(prog)
		if err != nil {
			return templates.Candidate{}, fmt.Errorf("fleet: generating candidates of %s: %w", jobID, err)
		}
		if len(info.Candidates) != len(cands) {
			return templates.Candidate{}, fmt.Errorf("fleet: job %s: regenerated %d candidates, coordinator has %d",
				jobID, len(cands), len(info.Candidates))
		}
		if reg, ok := exec.(JobAware); ok {
			if err := reg.RegisterJob(jobID, cands); err != nil {
				return templates.Candidate{}, fmt.Errorf("fleet: registering %s with executor: %w", jobID, err)
			}
		}
		byName = make(map[string]templates.Candidate, len(cands))
		for _, c := range cands {
			byName[c.Name()] = c
		}
		a.mu.Lock()
		if a.epoch != epoch {
			a.mu.Unlock()
			return templates.Candidate{}, fmt.Errorf("fleet: job %s resolved under a stale registration", jobID)
		}
		if existing, ok := a.jobs[jobID]; ok {
			byName = existing // a concurrent resolve won; use its map
		} else {
			a.jobs[jobID] = byName
		}
		a.mu.Unlock()
	}
	cand, ok := byName[name]
	if !ok {
		return templates.Candidate{}, fmt.Errorf("fleet: job %s has no candidate %q", jobID, name)
	}
	return cand, nil
}

// heartbeatLoop streams liveness plus the in-flight lease ids, aborting
// runs whose lease the coordinator no longer acknowledges.
func (a *Agent) heartbeatLoop(ctx context.Context) {
	ticker := time.NewTicker(a.heartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		a.mu.Lock()
		workerID := a.workerID
		ids := make([]int, 0, len(a.running))
		for id := range a.running {
			ids = append(ids, id)
		}
		a.mu.Unlock()
		resp, err := a.client.heartbeat(ctx, HeartbeatRequest{WorkerID: workerID, LeaseIDs: ids})
		if err != nil {
			if IsCode(err, CodeUnknownWorker) && ctx.Err() == nil {
				_ = a.register(ctx)
			}
			continue
		}
		known := make(map[int]bool, len(resp.KnownLeases))
		for _, id := range resp.KnownLeases {
			known[id] = true
		}
		preempted := make(map[int]bool, len(resp.Preempted))
		for _, id := range resp.Preempted {
			preempted[id] = true
		}
		a.mu.Lock()
		for _, id := range ids {
			if !known[id] {
				if cancel, ok := a.running[id]; ok {
					if preempted[id] {
						a.logInfo("lease preempted for higher-priority work; aborting run", "lease", id)
					} else {
						a.logInfo("lease reclaimed; aborting run", "lease", id)
					}
					cancel()
				}
			}
		}
		a.mu.Unlock()
	}
}

// logInfo and logWarn emit structured agent diagnostics when a Logger is
// configured; a nil Logger keeps the agent silent.
func (a *Agent) logInfo(msg string, args ...any) {
	if a.cfg.Logger != nil {
		a.cfg.Logger.Info(msg, args...)
	}
}

func (a *Agent) logWarn(msg string, args ...any) {
	if a.cfg.Logger != nil {
		a.cfg.Logger.Warn(msg, args...)
	}
}
