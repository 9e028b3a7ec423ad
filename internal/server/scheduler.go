// Package server implements the ease.ml service of §2 Figure 1: users submit
// declarative jobs over HTTP, feed supervision examples, refine them, and
// call infer against the best model found so far, while a multi-tenant
// scheduler (internal/core's HYBRID policy) decides which job's next
// candidate model to train on the shared (simulated) GPU pool.
//
// Scheduling is one lease lifecycle in two calls: Grant leases (job,
// candidate) pairs — chosen by the user picker with in-flight arms
// hallucinated GP-BUCB style — and Settle takes a run's outcome back:
// success is observed and recorded, a failure is released for retry or,
// at the retry budget, abandoned. Three executors are loops over that
// pair: RunRound (serialized, the deployed single-device strategy),
// internal/engine (a concurrent worker pool) and internal/fleet's
// coordinator (remote workers). The HTTP surface (see API in http.go) adds
// GET /metrics and /admin/start|stop for engine control.
//
// # Locking discipline
//
// State is guarded by three lock tiers instead of one global mutex, so
// user-facing operations on one job never wait behind scheduling decisions
// or bandit updates for another:
//
//   - jobsMu (RWMutex) guards the job set (jobs, byID, nextID). Write-held
//     only during Submit and recovery; every other path takes the read side
//     for a map lookup.
//   - coordMu is the cross-job coordinator: picker decisions, the lease
//     table, the round counter and the selection index (selindex.go) — the
//     published copy of every job's scheduling scalars, its in-flight arm
//     list and the per-class gap heaps. It is never held across training,
//     store writes or WAL appends.
//   - each Job has its own mu guarding the tenant (bandit posterior, σ̃
//     recurrence), its failure flag and its abandoned list. Complete's
//     posterior update — and the refresh behind the gap it then publishes —
//     runs under the job lock only, so completions for different jobs
//     proceed in parallel.
//
// A fourth lock, Job.settleMu, serializes the settles of one job across
// their store write and WAL commit, so the live model list, the observation
// order and the WAL order recovery replays never disagree. It is acquired
// first, with no other lock held, and by settles only.
//
// Lock order: jobsMu before coordMu before a job lock. Nothing holds two
// job locks. A pick holds coordMu and the lock of the one job it chose; the
// user picker never touches a bandit, because whoever moves one — a settle,
// an abandon, a job failure, a budget drain, a replay — reads the job's
// scalars under its lock and publishes them to the index in the coordMu
// section that follows. Between those two sections the view is one move
// behind, and two rules cover it: a publish that is not ahead of the view
// (the tried count only grows) is dropped, since two movers of one job can
// reach coordMu out of bandit order; and a pick that locks its chosen job
// and finds the bandit ahead of the view publishes the live scalars itself,
// takes the discarded pick back out of the picker and picks again (counted
// as stale_picks). Feed/Refine/Infer/Status take none of coordMu or the
// job locks — they touch only the per-task storage, which does its own
// locking.
//
// # Durability
//
// With a write-ahead log attached (Recover), every state mutation
// appends a WAL event before the operation acknowledges: job submissions,
// fed and refined examples, recorded models and abandoned candidates all
// survive a crash. A failed append surfaces as an error from the mutating
// call, and the first write, flush, fsync or segment-roll failure poisons
// the log: every later append and compaction returns that error without
// writing, so nothing is acknowledged after a failure the log cannot
// vouch for, and the facade's readiness probe turns false. The in-memory
// state may be ahead of the log (there is no transactional rollback); a
// restart recovers every acknowledged operation, plus whatever of the
// failed batch reached the disk. Leases are volatile — an in-flight lease
// of a crashed process leaves its arm untried in the recovered state and
// is re-queued by the next process's first scheduling pass. (Lease
// *expiries* are logged, though: when a fleet worker goes silent and its
// lease times out, the expiry event is appended so the operational history
// survives a coordinator crash.)
//
// # Lease TTL and expiry
//
// With SetLeaseTTL the scheduler supports remote workers that can die
// mid-training: every lease carries an expiry deadline refreshed by
// HeartbeatLease, and ExpireLeases (driven by the fleet coordinator's
// sweeper) removes leases whose holder went silent, making their arms
// selectable again — the candidate re-enters GP-BUCB selection exactly
// once, because a late Complete/Release for an expired lease fails with
// ErrLeaseConflict. A zero TTL (the default, and what the in-process
// engine uses) means leases never expire.
package server

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/bandit"
	"repro/internal/cluster"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/gp"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/templates"
	"repro/internal/trainsim"
)

// Trainer runs one candidate model for a job and reports its measured
// accuracy plus the execution cost. EstimateCost must be stable and
// strictly positive; the scheduler uses it for cost-aware selection before
// the candidate ever runs. Implementations must be safe for concurrent use:
// the execution engine calls Train from many workers at once, and a failed
// run must surface as an error, never a panic (a panic inside an engine
// worker would take down the whole server).
type Trainer interface {
	Train(jobID string, c templates.Candidate) (accuracy, cost float64, err error)
	EstimateCost(jobID string, c templates.Candidate) (float64, error)
}

// SimTrainer trains candidates on the trainsim learning-curve substrate,
// accounted through a simulated GPU pool. By default every run takes the
// whole pool (the deployed single-device strategy of §4.5); with Devices > 0
// runs are packed one-GPU-each onto that many devices instead (the
// multi-device strategy of §5.3.2, used by the execution engine).
type SimTrainer struct {
	Pool *cluster.Pool
	Seed int64

	// Devices selects the pool-accounting mode: 0 serializes every run
	// across the whole pool; N > 0 packs runs one GPU each onto the first N
	// devices, overlapping in virtual time.
	Devices int

	// Delay, when positive, makes every Train call sleep that long. The
	// simulated substrate is otherwise instantaneous; benchmarks use Delay
	// to surface the engine's wall-clock concurrency.
	Delay time.Duration

	// mu is an RWMutex because the sims map is read-mostly: registration
	// writes once per job, while every Train/EstimateCost from every
	// concurrent engine worker only reads, so lookups proceed in parallel.
	mu   sync.RWMutex
	sims map[string]*simEntry
}

type simEntry struct {
	sim   *trainsim.Simulator
	index map[string]int // candidate name → model index
}

// NewSimTrainer creates a SimTrainer over the given pool.
func NewSimTrainer(pool *cluster.Pool, seed int64) *SimTrainer {
	return &SimTrainer{Pool: pool, Seed: seed, sims: make(map[string]*simEntry)}
}

// Register builds the per-job simulator for a candidate list. Candidate
// training behaviour is derived deterministically from the job id and the
// candidate name, so restarts reproduce the same quality surface.
func (st *SimTrainer) Register(jobID string, cands []templates.Candidate) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.sims[jobID]; ok {
		return fmt.Errorf("server: job %q already registered with trainer", jobID)
	}
	h := fnv.New64a()
	h.Write([]byte(jobID))
	jobHash := int64(h.Sum64() & 0x7fffffffffff)

	difficulty := 0.05 + 0.30*frac(jobHash, 11)
	entry := &simEntry{index: make(map[string]int, len(cands))}
	models := make([]trainsim.ModelSpec, len(cands))
	for i, c := range cands {
		ch := fnv.New64a()
		ch.Write([]byte(c.Model))
		candHash := int64(ch.Sum64() & 0x7fffffffffff)
		peak := 0.55 + 0.40*frac(candHash, 3)
		if c.Normalizer != nil {
			// Normalization variants perturb the base model's peak: helpful
			// for some (job, k) pairs, harmful for others.
			peak += 0.10 * (frac(jobHash^candHash, 5) - 0.5) * c.Normalizer.K
			peak = clamp(peak, 0.05, 0.99)
		}
		models[i] = trainsim.ModelSpec{
			Name:         c.Name(),
			Peak:         peak,
			Tau:          10 + 30*frac(candHash, 7),
			CostPerEpoch: 0.5 + 15*frac(candHash, 13)*frac(candHash, 17),
			BestLR:       trainsim.DefaultLearningRates[int(candHash)%len(trainsim.DefaultLearningRates)],
		}
		entry.index[c.Name()] = i
	}
	sim, err := trainsim.New(trainsim.Config{
		Models: models,
		Tasks:  []trainsim.TaskSpec{{Name: jobID, Difficulty: difficulty, SizeFactor: 0.5 + 2*frac(jobHash, 19)}},
		Seed:   st.Seed ^ jobHash,
	})
	if err != nil {
		return fmt.Errorf("server: building simulator for %q: %w", jobID, err)
	}
	entry.sim = sim
	st.sims[jobID] = entry
	return nil
}

// lookup resolves a (job, candidate) pair to its simulator and model index.
func (st *SimTrainer) lookup(jobID string, c templates.Candidate) (*simEntry, int, error) {
	st.mu.RLock()
	entry, ok := st.sims[jobID]
	st.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("server: job %q not registered", jobID)
	}
	idx, ok := entry.index[c.Name()]
	if !ok {
		return nil, 0, fmt.Errorf("server: job %q has no candidate %q", jobID, c.Name())
	}
	return entry, idx, nil
}

// Train implements Trainer. It is safe for concurrent use: simulator runs
// are deterministic pure functions of (job, candidate) and the pool does its
// own locking.
func (st *SimTrainer) Train(jobID string, c templates.Candidate) (float64, float64, error) {
	entry, idx, err := st.lookup(jobID, c)
	if err != nil {
		return 0, 0, err
	}
	res := entry.sim.Train(0, idx)
	if st.Delay > 0 {
		time.Sleep(st.Delay)
	}
	if st.Pool != nil {
		if st.Devices > 0 {
			st.Pool.RunOneGPUAmong(jobID+"/"+c.Name(), res.Cost, st.Devices)
		} else {
			st.Pool.RunSingleDevice(jobID+"/"+c.Name(), res.Cost)
		}
	}
	return res.Accuracy, res.Cost, nil
}

// EstimateCost implements Trainer.
func (st *SimTrainer) EstimateCost(jobID string, c templates.Candidate) (float64, error) {
	entry, idx, err := st.lookup(jobID, c)
	if err != nil {
		return 0, err
	}
	return entry.sim.Cost(0, idx), nil
}

func frac(h int64, salt int64) float64 {
	x := uint64(h) * uint64(salt*2654435761+1)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return float64(x%1000003) / 1000003
}

func clamp(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}

// Job is one submitted ease.ml task. The submitting user's name (Name) is
// the job's tenant identity for admission control: quotas, rate limits and
// budgets aggregate over all jobs sharing a name.
type Job struct {
	ID         string
	Name       string
	Program    dsl.Program
	Template   string
	Candidates []templates.Candidate
	Julia      string
	Python     string

	// Class is the tenant's admission service class, fixed at submission
	// (standard when no admission controller is configured). It drives
	// weighted fair sharing and the preemption rules.
	Class admission.Class

	// settleMu orders the job's settles end to end — observation, round
	// claim, model store, WAL ack — so the order recovery replays is the
	// order the live state was built in. Taken before every other scheduler
	// lock and held across the commit; nothing on the pick path takes it.
	settleMu sync.Mutex

	// mu is the per-job lock: it guards the tenant (bandit posterior and
	// σ̃ recurrence), the failure flag, the abandoned list and the budget /
	// done markers. See the package comment for the lock order.
	mu        sync.Mutex
	tenant    *core.Tenant
	failed    string   // non-empty: the job is failed and excluded from scheduling
	abandoned []string // candidate names retired after repeated training failures
	// budgetExhausted marks a job drained because its tenant's GPU budget
	// ran out: every untried arm was retired and late lease settlements
	// bounce off ErrLeaseConflict.
	budgetExhausted bool
	// doneNotified dedupes the admission controller's JobDone callback: a
	// job frees its concurrent-job slot exactly once, whether it drained,
	// failed or was budget-exhausted.
	doneNotified bool

	store *storage.TaskStore
}

// Scheduler owns the job set and drives multi-tenant model selection over
// it. It is the in-process core of the HTTP server and is usable directly
// (examples drive it without HTTP). See the package comment for the locking
// discipline.
type Scheduler struct {
	store   *storage.Store
	trainer Trainer
	picker  core.UserPicker
	server  string // advertised server address for codegen

	// jobsMu guards the job set. jobs is append-only.
	jobsMu sync.RWMutex
	jobs   []*Job
	byID   map[string]*Job
	nextID int

	// coordMu is the cross-job coordinator lock.
	coordMu   sync.Mutex
	leases    map[int]*Lease
	nextLease int
	rounds    int

	// selIdx is the cross-job selection index (see selindex.go): the
	// published view of every job that picks read instead of locking it,
	// the per-job lease lists and epochs, the per-class gap heaps and the
	// persistent hallucination shadows. Guarded by coordMu.
	selIdx selectionIndex

	// leaseTTL makes leases expire when their holder goes silent (0 = never,
	// the in-process engine's mode); now is the injectable clock expiry runs
	// on. Both are set before serving traffic and read under coordMu.
	leaseTTL time.Duration
	now      func() time.Time

	// failCounts tallies failed training runs per (job, arm) and retryBudget
	// is how many of them Settle tolerates before it abandons the candidate.
	// Both live here — not in an executor — so a candidate alternating
	// between RunRound, the engine and remote workers still gets one budget.
	// An entry is dropped when its arm is observed or retired. Guarded by
	// coordMu.
	failCounts  map[failKey]int
	retryBudget int

	// adm is the optional admission controller (SetAdmission): quota,
	// rate-limit and budget decisions for every tenant. Set before serving
	// traffic; nil means everything is admitted at standard priority.
	adm *admission.Controller

	log *storage.Log // nil: in-memory only

	// decisions is the decision-provenance ring (see provenance.go). The
	// zero value is ready; it does its own leaf locking.
	decisions telemetry.DecisionRing
}

// NewScheduler creates a scheduler with the given trainer and user picker
// (nil picker defaults to ease.ml's HYBRID policy).
func NewScheduler(trainer Trainer, picker core.UserPicker, serverAddr string) *Scheduler {
	if picker == nil {
		picker = core.NewHybridPicker()
	}
	if serverAddr == "" {
		serverAddr = "http://localhost:9000"
	}
	return &Scheduler{
		store:       storage.NewStore(),
		trainer:     trainer,
		picker:      picker,
		byID:        make(map[string]*Job),
		server:      serverAddr,
		leases:      make(map[int]*Lease),
		failCounts:  make(map[failKey]int),
		retryBudget: 3,
		now:         time.Now,
	}
}

// failKey names one candidate of one job in the failure tally.
type failKey struct {
	job string
	arm int
}

// SetRetryBudget sets at which failed run of one candidate Settle abandons
// it (default 3). Its one caller is the fleet lease benchmark, whose steady
// state hands every lease back as a failure; the other hand-back it could
// use, expiry, snapshots the flight recorder per lease.
func (sc *Scheduler) SetRetryBudget(n int) {
	sc.coordMu.Lock()
	sc.retryBudget = n
	sc.coordMu.Unlock()
}

// SetLeaseTTL makes every subsequently picked lease expire unless its
// holder heartbeats within d (0 restores never-expiring leases). Set it
// before serving remote workers; the in-process engine settles its leases
// synchronously and runs without a TTL.
func (sc *Scheduler) SetLeaseTTL(d time.Duration) {
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	sc.leaseTTL = d
}

// SetClock replaces the clock lease expiry runs on — tests drive expiry
// deterministically instead of sleeping. Set before serving traffic.
func (sc *Scheduler) SetClock(now func() time.Time) {
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	sc.now = now
}

// AssignLease records which worker holds an outstanding lease, so expiry
// can attribute the reclaimed work. It errors (ErrLeaseConflict) on a lease
// that is not outstanding or already settling.
func (sc *Scheduler) AssignLease(l *Lease, worker string) error {
	if l == nil {
		return fmt.Errorf("server: nil lease")
	}
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	stored, ok := sc.leases[l.ID]
	if !ok || stored != l || stored.settling {
		return fmt.Errorf("server: assigning lease %d (%s/%s): %w", l.ID, l.JobID, l.Candidate.Name(), ErrLeaseConflict)
	}
	stored.Worker = worker
	return nil
}

// HeartbeatLease refreshes an outstanding lease's expiry deadline. It
// errors (ErrLeaseConflict) on an unknown lease id — the holder learns its
// lease was reclaimed and should abort the run.
func (sc *Scheduler) HeartbeatLease(id int) error {
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	stored, ok := sc.leases[id]
	if !ok {
		return fmt.Errorf("server: heartbeat for lease %d: %w", id, ErrLeaseConflict)
	}
	if sc.leaseTTL > 0 {
		stored.Expires = sc.now().Add(sc.leaseTTL)
	}
	return nil
}

// ExpireLeases reclaims every worker-assigned lease whose deadline has
// passed: the lease leaves the table, so its arm re-enters GP-BUCB
// selection — exactly once, because any late Complete/Release for it now
// fails with ErrLeaseConflict. Leases mid-settlement are left alone (their
// result is landing), as are unassigned leases — the in-process engine
// settles its leases synchronously and has no heartbeat to keep them
// alive, so expiry must never reclaim under a local worker mid-training.
// With a WAL attached the sweep's expiries are logged as one batch (one
// commit however many leases lapsed), so the operational history survives
// a crash. It returns the expired leases for registry bookkeeping.
func (sc *Scheduler) ExpireLeases() ([]*Lease, error) {
	sc.coordMu.Lock()
	var expired []*Lease
	if sc.leaseTTL > 0 {
		now := sc.now()
		for _, l := range sc.leases {
			if !l.settling && l.Worker != "" && !l.Expires.IsZero() && l.Expires.Before(now) {
				sc.dropLeaseLocked(l)
				expired = append(expired, l)
			}
		}
	}
	sc.coordMu.Unlock()
	for _, l := range expired {
		finishLeaseSpan(l, "expired", nil)
	}
	if sc.log != nil {
		events := make([]storage.Event, len(expired))
		for i, l := range expired {
			events[i] = storage.Event{Type: storage.EventLeaseExpired, Job: l.JobID, Candidate: l.Candidate.Name(), Worker: l.Worker}
		}
		if _, err := sc.log.AppendBatch(events); err != nil {
			return expired, fmt.Errorf("server: logging %d lease expiries: %w", len(expired), err)
		}
	}
	return expired, nil
}

// Trainer returns the trainer the scheduler was built with, so an execution
// engine can run the work it leases.
func (sc *Scheduler) Trainer() Trainer { return sc.trainer }

// Persistent reports whether a write-ahead log is attached.
func (sc *Scheduler) Persistent() bool { return sc.log != nil }

// Submit parses and registers a new job: the submission passes tenant
// admission (rate limit and concurrent-job cap, when a controller is
// configured), the program is validated, matched against the Figure 4
// templates, candidates are generated (including normalization variants
// for image-shaped inputs), code is generated, and a GP-UCB tenant is
// created for the scheduler. With a WAL attached the submission is logged
// before it becomes visible. Over-quota submissions fail with an error
// wrapping admission.ErrQuotaExceeded (HTTP 429).
func (sc *Scheduler) Submit(name, programSrc string) (*Job, error) {
	// Admission before the expensive build: a tenant over its rate limit
	// must not be able to burn candidate generation and cost estimation.
	// The job slot is refunded on any later failure.
	if sc.adm != nil {
		// A budget-exhausted tenant cannot buy more training by submitting
		// fresh jobs: Budget bounds the tenant's *total* cost, and
		// enforceBudget only drains at completion time — without this gate
		// each new job would train up to the in-flight concurrency worth of
		// candidates before the drain caught up.
		if budget := sc.adm.Budget(name); budget > 0 && sc.TenantCost(name) >= budget {
			err := fmt.Errorf("server: submitting for tenant %q: GPU budget %g exhausted: %w",
				name, budget, admission.ErrQuotaExceeded)
			sc.emitAdmissionDecision(name, "rejected", err)
			return nil, err
		}
		if err := sc.adm.AdmitJob(name); err != nil {
			err = fmt.Errorf("server: submitting for tenant %q: %w", name, err)
			sc.emitAdmissionDecision(name, "rejected", err)
			return nil, err
		}
	}
	job, err := sc.submitAdmitted(name, programSrc)
	if err != nil && sc.adm != nil {
		sc.adm.JobDone(name) // refund the slot of a submission that never published
	}
	if err == nil && sc.adm != nil {
		sc.emitAdmissionDecision(name, "granted", nil)
	}
	return job, err
}

// submitAdmitted is Submit past the admission gate.
func (sc *Scheduler) submitAdmitted(name, programSrc string) (*Job, error) {
	prog, err := dsl.ParseCached(programSrc)
	if err != nil {
		return nil, err
	}

	// Reserve the id briefly, then build outside the lock: candidate
	// generation, codegen and per-candidate cost estimation are the
	// expensive part of a submission, and holding jobsMu through them
	// would stall every concurrent job lookup. Ids are never reused, so a
	// failed build just skips one.
	sc.jobsMu.Lock()
	sc.nextID++
	id := fmt.Sprintf("job-%04d", sc.nextID)
	sc.jobsMu.Unlock()

	job, err := sc.buildJob(id, name, prog)
	if err != nil {
		return nil, err
	}
	score := sc.scoreLocked(job) // not yet published: nobody else can hold it

	sc.jobsMu.Lock()
	defer sc.jobsMu.Unlock()
	job.tenant.ID = len(sc.jobs)
	if sc.log != nil {
		// Log before publishing, inside jobsMu: a submission that cannot
		// be made durable is not acknowledged, and compaction's capture
		// (which reads the job set) can never observe a published job
		// whose event it is about to truncate. The leaked trainer entry
		// of a failed append is harmless.
		if err := sc.log.AppendJobSubmitted(id, name, prog.String()); err != nil {
			return nil, fmt.Errorf("server: logging submission of %q: %w", id, err)
		}
	}
	sc.jobs = append(sc.jobs, job)
	sc.byID[id] = job
	sc.coordMu.Lock()
	sc.selIdx.add(job, score)
	sc.coordMu.Unlock()
	return job, nil
}

// buildJob constructs a Job for an already-parsed program under a fixed id:
// trainer registration, task storage, cost estimation and the GP-UCB
// tenant (its index is fixed at publish time). It takes no scheduler
// locks; the trainer and store do their own locking.
func (sc *Scheduler) buildJob(id, name string, prog dsl.Program) (*Job, error) {
	cands, tpl, err := templates.GenerateCached(prog)
	if err != nil {
		return nil, err
	}
	if reg, ok := sc.trainer.(*SimTrainer); ok {
		if err := reg.Register(id, cands); err != nil {
			return nil, err
		}
	}
	ts, ok := sc.store.Task(id)
	if !ok {
		if ts, err = sc.store.CreateTask(id); err != nil {
			return nil, err
		}
	}

	costs := make([]float64, len(cands))
	features := make([][]float64, len(cands))
	for i, c := range cands {
		cost, err := sc.trainer.EstimateCost(id, c)
		if err != nil {
			return nil, fmt.Errorf("server: estimating cost of %q: %w", c.Name(), err)
		}
		costs[i] = cost
		features[i] = candidateFeature(c)
	}
	process := gp.NewFromFeatures(gp.RBF{Variance: 0.05, LengthScale: 0.5}, features, 1e-4)
	b := bandit.New(process, bandit.Config{
		Costs:     costs,
		CostAware: true,
		BetaArms:  32 * len(cands), // headroom for jobs arriving later
		Mean0:     0.6,
	})
	class := admission.ClassStandard
	if sc.adm != nil {
		class = sc.adm.ClassOf(name)
	}
	tenant := core.NewTenant(0, id, b) // index assigned at publish
	tenant.Class = string(class)
	tenant.Weight = class.Weight()
	return &Job{
		ID:         id,
		Name:       name,
		Program:    prog,
		Template:   tpl.Name,
		Candidates: cands,
		Julia:      codegen.JuliaTypes(prog),
		Python:     codegen.PythonLibrary(id, sc.server, prog),
		Class:      class,
		tenant:     tenant,
		store:      ts,
	}, nil
}

// candidateFeature embeds a candidate for the GP kernel: a hash-derived
// model-family coordinate plus the normalization parameter. Candidates of
// the same base model cluster together, which is what lets one observation
// inform its normalization variants.
func candidateFeature(c templates.Candidate) []float64 {
	h := fnv.New64a()
	h.Write([]byte(c.Model))
	base := float64(h.Sum64()%1000) / 1000
	k := 0.0
	if c.Normalizer != nil {
		k = c.Normalizer.K
	}
	return []float64{base, k * 0.3}
}

// Job returns a job by id.
func (sc *Scheduler) Job(id string) (*Job, bool) {
	sc.jobsMu.RLock()
	defer sc.jobsMu.RUnlock()
	j, ok := sc.byID[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (sc *Scheduler) Jobs() []*Job {
	sc.jobsMu.RLock()
	defer sc.jobsMu.RUnlock()
	return append([]*Job(nil), sc.jobs...)
}

// jobsSnapshot returns the current job slice (append-only, so the returned
// slice is immutable) for a scheduling pass.
func (sc *Scheduler) jobsSnapshot() []*Job {
	sc.jobsMu.RLock()
	defer sc.jobsMu.RUnlock()
	return sc.jobs
}

// Rounds returns the number of completed scheduling rounds.
func (sc *Scheduler) Rounds() int {
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	return sc.rounds
}

// ErrLeaseConflict marks lease-lifecycle conflicts: settling or releasing a
// lease that is no longer outstanding (double Complete, Complete after
// Release or after expiry) or one whose settlement is already in progress
// (workers racing on retries). HTTP surfaces map it to 409 Conflict so a
// retrying worker can tell "my result lost a race" from a server fault.
var ErrLeaseConflict = errors.New("lease conflict")

// ErrNoJob marks lookups of a job ID the scheduler does not know. HTTP
// surfaces map it to 404 Not Found so clients can tell a missing job from
// a malformed request.
var ErrNoJob = errors.New("no such job")

// errNoJob builds the canonical missing-job error for one ID.
func errNoJob(jobID string) error {
	return fmt.Errorf("server: no job %q: %w", jobID, ErrNoJob)
}

// Lease is one unit of leased work: a (job, candidate) pair the scheduler
// has picked but whose result has not been reported yet. A lease's arm is
// excluded from further selection until Complete or Release is called with
// it, so concurrent workers never train the same candidate twice.
type Lease struct {
	ID        int
	JobID     string
	Arm       int
	Candidate templates.Candidate
	// UCB is the (hallucinated-posterior) upper confidence bound the arm was
	// selected at; Complete feeds it into the σ̃ recurrence.
	UCB float64

	// Worker is the fleet worker the lease is assigned to (empty for the
	// in-process engine); AssignLease sets it. Guarded by coordMu while the
	// lease is outstanding.
	Worker string
	// Expires is the deadline after which ExpireLeases reclaims the lease;
	// zero means the lease never expires. Stamped at pick time when a TTL
	// is configured and refreshed by HeartbeatLease. Guarded by coordMu.
	Expires time.Time

	// Trace is the lease's lifecycle trace ID, minted at pick time. It
	// travels with the lease through the fleet protocol (the wire lease
	// and the X-Easeml-Trace header) so coordinator and worker logs for
	// one lease correlate. Immutable after pick.
	Trace string

	// span is the lease's root lifecycle span, opened at selection before
	// the lease is published and ended by finishLeaseSpan with the terminal
	// outcome (completed / released / abandoned / expired / preempted /
	// conflict). Its trace and ID never change after publication, so
	// children may open under it from any goroutine.
	span telemetry.Span

	// entry is the job's position in the selection index (and in sc.jobs).
	entry int

	// settling marks a lease whose Complete/Abandon is in progress: the
	// lease stays in the table — keeping its arm excluded from selection —
	// until the bandit update lands, closing the window in which the arm
	// would be neither leased nor tried and could be leased twice. Guarded
	// by coordMu.
	settling bool
}

// RootSpanID renders the ID of the lease's root lifecycle span ("" for a
// lease with no trace). It ships over the fleet wire so a worker's run
// span parents into the coordinator's tree.
func (l *Lease) RootSpanID() string { return l.span.ID() }

// ChildSpan opens a span under the lease's root, started at start.
func (l *Lease) ChildSpan(op string, start time.Time) telemetry.Span {
	return l.span.Child(op, start)
}

// InFlight returns the number of outstanding leases.
func (sc *Scheduler) InFlight() int {
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	return len(sc.leases)
}

// Grant is the first half of the lease lifecycle: it leases up to n more
// (job, candidate) work items, stopping early once limit leases are
// outstanding in total (limit <= 0: no ceiling) or no more work is
// available, and returns the newly created leases. Count and ceiling are
// applied inside the pick's own critical section, so concurrent callers
// never overshoot either. Jobs are chosen by the configured core.UserPicker
// over the tenants that still have unleased untried candidates; within a
// job the candidate is chosen by GP-BUCB with the job's in-flight arms
// hallucinated (bandit.SelectBatch's scheme, applied incrementally), so
// parallel picks diversify.
//
// Every returned lease must eventually be handed back via Settle (or its
// parts: Complete with the training result, Release, Abandon). An error
// comes with no leases: whatever the call had leased before a picker broke
// its contract is released before it returns.
func (sc *Scheduler) Grant(n, limit int) ([]*Lease, error) {
	t0 := time.Now()
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	// Lock wait is coordMu acquisition plus the wait for each chosen job's
	// lock — the two places a Grant can stall behind other work.
	lockWait := time.Since(t0)
	var picked []*Lease
	var err error
	for len(picked) < n && (limit <= 0 || len(sc.leases) < limit) {
		var l *Lease
		if l, err = sc.pickNextLocked(&lockWait); l == nil {
			break
		}
		picked = append(picked, l)
	}
	pickStageLockWait.Observe(lockWait)
	if err != nil {
		// A picker-contract violation ends the Grant with nothing granted:
		// a caller that sees an error has no leases to settle, so the ones
		// this call already made go back here — a plain release, no failure
		// tallied — before anyone else can see them.
		for _, l := range picked {
			if relErr := sc.releaseLocked(l); relErr != nil {
				err = errors.Join(err, relErr)
			}
		}
		return nil, err
	}
	if len(picked) > 0 {
		// Attribute the Grant's lock wait to the first lease's tree (once
		// per Grant, like the histogram).
		lw := picked[0].span.Child(opPickLockWait, t0)
		lw.EndAt(t0.Add(lockWait))
	}
	telemetry.SlowOp("pick_work", time.Since(t0), "leases", len(picked))
	return picked, err
}

// PickWork leases until maxInFlight leases are outstanding: Grant with the
// count and the ceiling equal. Kept for the benchmark harness.
func (sc *Scheduler) PickWork(maxInFlight int) ([]*Lease, error) {
	if maxInFlight <= 0 {
		return nil, fmt.Errorf("server: maxInFlight %d must be positive", maxInFlight)
	}
	return sc.Grant(maxInFlight, maxInFlight)
}

// SelectionStats snapshots the pick-path counters: the selection index's
// epoch/heap/shadow traffic plus the per-job bandit cache counters
// aggregated across the job set.
func (sc *Scheduler) SelectionStats() SelectionStats {
	sc.coordMu.Lock()
	stats := sc.selIdx.stats
	sc.coordMu.Unlock()
	for _, job := range sc.jobsSnapshot() {
		job.mu.Lock()
		bs := job.tenant.Bandit.CacheStats()
		job.mu.Unlock()
		stats.BanditCache.Select.Hits += bs.Select.Hits
		stats.BanditCache.Select.Misses += bs.Select.Misses
		stats.BanditCache.Select.Invalidations += bs.Select.Invalidations
		stats.BanditCache.Posterior.Hits += bs.Posterior.Hits
		stats.BanditCache.Posterior.Misses += bs.Posterior.Misses
		stats.BanditCache.Posterior.Invalidations += bs.Posterior.Invalidations
		stats.BanditCache.Posterior.Rebuilds += bs.Posterior.Rebuilds
	}
	return stats
}

// pickNextLocked leases the next single work item. It returns (nil, nil)
// when no job has an untried, unleased arm, and an error when the picker
// violates its contract by choosing a blocked tenant. Callers hold coordMu
// and no job lock: the user picker reads the selection index's views —
// scalars the settle paths publish — so the only job lock a pick takes is
// the chosen job's, for the arm pick on its bandit. jobWait accumulates the
// time spent waiting for it.
//
// Oracle-capable pickers answer the greedy argmax from the chosen class's
// gap heap, and hallucination shadows persist on the index across calls —
// revived, checkpoint-rolled-back or extended to match the lease list,
// rebuilt only after an observation (an O(1) prefix-sharing snapshot, never
// a deep clone). The lock-everything, linear-scan, clone-per-batch picker
// it must agree with bit for bit is referenceGrant in reference_test.go.
func (sc *Scheduler) pickNextLocked(jobWait *time.Duration) (*Lease, error) {
	ix := &sc.selIdx
	if !ix.anyActive() {
		return nil, nil
	}
	selectT0 := time.Now()
	defer pickStageSelect.ObserveSince(selectT0)
	op, oracle := sc.picker.(core.OraclePicker)
	for ix.anyActive() {
		// The picker always sees every view — stateful pickers (HYBRID's
		// freeze signature, round-robin's rotation) depend on stable
		// indices. Jobs whose untried arms are all leased out, and failed or
		// drained jobs (all arms retired), read as inactive.
		var idx int
		if oracle {
			idx = op.PickWithOracle(ix.views, ix)
		} else {
			idx = sc.picker.Pick(ix.views)
		}
		if idx < 0 || idx >= len(ix.views) {
			return nil, fmt.Errorf("server: picker %s returned index %d with active tenants remaining", sc.picker.Name(), idx)
		}
		e := &ix.entries[idx]
		job := e.job
		if !ix.views[idx].Active() {
			// A silent nil here would let a faulty picker end scheduling with
			// untried candidates looking like a clean drain.
			return nil, fmt.Errorf("server: picker %s chose job %s, which has no selectable candidate", sc.picker.Name(), job.ID)
		}
		lockT0 := time.Now()
		job.mu.Lock()
		*jobWait += time.Since(lockT0)
		if sc.refreshLocked(idx) {
			// The pick was made on a view the job's bandit had already left
			// behind (possibly retired wholesale). Take back what it moved in
			// the picker — WRR credit, the freeze window — and pick again on
			// the scalars just published.
			job.mu.Unlock()
			ix.stats.StalePicks++
			if u, ok := sc.picker.(core.PickUndoer); ok {
				u.UndoPick()
			}
			continue
		}
		l, err := sc.leaseArmLocked(idx, selectT0)
		job.mu.Unlock()
		if err == nil {
			if oracle {
				ix.stats.OraclePicks++
			} else {
				ix.stats.LegacyPicks++
			}
		}
		return l, err
	}
	return nil, nil
}

// refreshLocked republishes job i's scalars when its bandit has moved past
// its view, and reports whether it had. Callers hold coordMu and the job's
// lock, so after it the view, the epoch (and with it the shadow's validity)
// and the bandit agree until one of the locks is released.
func (sc *Scheduler) refreshLocked(i int) bool {
	job := sc.selIdx.entries[i].job
	if job.tenant.Bandit.NumTried() == sc.selIdx.views[i].NumTried() {
		return false
	}
	return sc.selIdx.publish(i, sc.scoreLocked(job))
}

// scoreLocked reads a job's scalars for publication. It is where the
// posterior refresh behind the gap is paid — under the job's lock only, in
// whichever goroutine moved the bandit. Callers hold job.mu.
func (sc *Scheduler) scoreLocked(job *Job) core.Scalars {
	defer pickStageIndexRepair.ObserveSince(time.Now())
	return job.tenant.Scalars()
}

// leaseArmLocked picks job i's next arm by GP-BUCB and leases it. Callers
// hold coordMu and the job's lock, with the job's view current and active.
func (sc *Scheduler) leaseArmLocked(i int, selectT0 time.Time) (*Lease, error) {
	e := &sc.selIdx.entries[i]
	job := e.job
	// With nothing in flight for the job, the hallucinated pick equals the
	// real bandit's (cached) SelectArm — the serialized hot path builds no
	// shadow at all. Otherwise the pick goes through a GP-BUCB shadow with
	// the in-flight arms hallucinated.
	var arm int
	var ucb float64
	var hallStart time.Time
	var hallDur time.Duration
	if len(e.leased) == 0 {
		arm, ucb = job.tenant.Bandit.SelectArm()
	} else {
		hallStart = time.Now()
		shadow := sc.selIdx.shadowFor(e, job.tenant.Bandit, e.leased)
		arm, ucb = shadow.SelectArm()
		sc.selIdx.hallucinate(e, []int{arm})
		hallDur = time.Since(hallStart)
		pickStageHallucinate.Observe(hallDur)
	}
	if arm < 0 {
		// Cannot happen for an active view that agrees with its bandit;
		// surface it rather than loop.
		return nil, fmt.Errorf("server: job %s reported active but selected no arm", job.ID)
	}
	l := sc.newLeaseLocked(job, arm, ucb)
	sc.emitGrantProvenance(l, job, false, len(e.leased), selectT0, hallStart, hallDur)
	sc.addLeaseLocked(l)
	sc.selIdx.stats.Picks++
	return l, nil
}

// newLeaseLocked mints the lease for (job, arm) priced at ucb, stamped with
// its expiry when a TTL is configured. The caller attaches the root span
// and publishes it with addLeaseLocked. Callers hold coordMu.
func (sc *Scheduler) newLeaseLocked(job *Job, arm int, ucb float64) *Lease {
	sc.nextLease++
	l := &Lease{ID: sc.nextLease, JobID: job.ID, Arm: arm, Candidate: job.Candidates[arm], UCB: ucb,
		Trace: telemetry.NewTraceID(), entry: job.tenant.ID}
	leaseTraces.Inc()
	if sc.leaseTTL > 0 {
		l.Expires = sc.now().Add(sc.leaseTTL)
	}
	return l
}

// addLeaseLocked and dropLeaseLocked are the only writers of the lease
// table, and they keep the job's in-flight arm list in the selection index
// (grant order — the order its shadow hallucinated them in, so a shadow
// rebuilt from the list reproduces a revived one bit for bit) and the
// leased count of its view in step with it. Callers hold coordMu.
func (sc *Scheduler) addLeaseLocked(l *Lease) {
	sc.leases[l.ID] = l
	sc.selIdx.setLeased(l.entry, append(sc.selIdx.entries[l.entry].leased, l.Arm))
}

func (sc *Scheduler) dropLeaseLocked(l *Lease) {
	delete(sc.leases, l.ID)
	arms := sc.selIdx.entries[l.entry].leased
	if k := slices.Index(arms, l.Arm); k >= 0 {
		sc.selIdx.setLeased(l.entry, slices.Delete(arms, k, k+1))
	}
}

// beginSettle marks an outstanding lease as settling, erroring on a lease
// that is not outstanding (double completion, or completion after Release)
// or already settling. The lease stays in the table so its arm remains
// excluded from Grant until endSettle. It returns the lease's job — a lease
// in the table was minted from one (newLeaseLocked), and jobs are never
// removed.
func (sc *Scheduler) beginSettle(l *Lease) (*Job, error) {
	if l == nil {
		return nil, fmt.Errorf("server: nil lease")
	}
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	stored, ok := sc.leases[l.ID]
	if !ok || stored != l {
		return nil, fmt.Errorf("server: lease %d (%s/%s) is not outstanding: %w", l.ID, l.JobID, l.Candidate.Name(), ErrLeaseConflict)
	}
	if stored.settling {
		return nil, fmt.Errorf("server: lease %d (%s/%s) is already being settled: %w", l.ID, l.JobID, l.Candidate.Name(), ErrLeaseConflict)
	}
	stored.settling = true
	return sc.selIdx.entries[l.entry].job, nil
}

// endSettle drops a settling lease from the table and publishes its job's
// scalars s, read under the job's lock after whatever the settle did to
// the bandit. Every caller leaves the arm tried or retired, so its failure
// tally goes too.
func (sc *Scheduler) endSettle(l *Lease, s core.Scalars) {
	sc.coordMu.Lock()
	sc.dropLeaseLocked(l)
	delete(sc.failCounts, failKey{l.JobID, l.Arm})
	sc.selIdx.publish(l.entry, s)
	sc.coordMu.Unlock()
}

// Complete is the second phase of the two-phase API: it reports the training
// result for a leased work item, feeding the observation into the job's
// bandit and σ̃ recurrence and recording the model (durably, when a WAL is
// attached). The global round counter advances in completion order. It
// errors on a lease that is not outstanding, and a posterior update that
// fails on an ill-conditioned covariance fails the job — retiring it from
// scheduling — instead of killing the server.
func (sc *Scheduler) Complete(l *Lease, accuracy, cost float64) error {
	settleT0 := time.Now()
	job, err := sc.beginSettle(l)
	if err != nil {
		// A conflicting settle still leaves evidence: a zero-length settle
		// span (the root span, if any, was closed by the terminal path that
		// won the race).
		if l != nil {
			s := l.span.Child(opSettle, settleT0)
			s.SetAttr("outcome", "conflict")
			s.Fail(err)
			s.End()
		}
		return err
	}
	settle := l.span.Child(opSettle, settleT0)
	fail := func(outcome string, err error) error {
		settle.SetAttr("outcome", outcome)
		settle.Fail(err)
		settle.End()
		finishLeaseSpan(l, outcome, err)
		return err
	}
	rec := storage.ModelRecord{Name: l.Candidate.Name(), Accuracy: accuracy, Cost: cost}
	if outcome, err := sc.observeAndRecord(l, job, &rec, &settle); err != nil {
		return fail(outcome, err)
	}
	settle.SetAttr("outcome", "completed")
	settle.End()
	finishLeaseSpan(l, "completed", nil)
	// The observation paid its arm's cost into the bandit; check the
	// tenant's budget after the result is durable, so a budget-drained job
	// never loses an acknowledged model record.
	if err := sc.enforceBudget(job.Name); err != nil {
		return fmt.Errorf("server: completing %s/%s: %w", l.JobID, rec.Name, err)
	}
	return nil
}

// observeAndRecord is the ordered core of Complete: bandit observation →
// round claim → model store → WAL ack, all under the job's settle lock, so
// two settles of one job land in the same order in the live model list, in
// the observation sequence and in the WAL recovery replays. It fills in
// rec.Round and returns the span outcome tag with any error. The lock is
// distinct from job.mu, which is released before the store write and the
// fsync: a pick of this job (which takes job.mu) never waits on a commit.
// The WAL append's span is a child of settle.
func (sc *Scheduler) observeAndRecord(l *Lease, job *Job, rec *storage.ModelRecord, settle *telemetry.Span) (string, error) {
	job.settleMu.Lock()
	defer job.settleMu.Unlock()

	// A settle that bounces leaves the bandit where it was; publishing its
	// scalars is then a no-op the index drops.
	bounce := func() {
		s := sc.scoreLocked(job)
		job.mu.Unlock()
		sc.endSettle(l, s)
	}
	job.mu.Lock()
	if job.failed != "" {
		bounce()
		return "failed", fmt.Errorf("server: job %s is failed (%s); dropping result for %s", l.JobID, job.failed, rec.Name)
	}
	if job.budgetExhausted {
		// Graceful drain: the tenant's budget ran out while this run was in
		// flight. The arm is already retired; the late result bounces off
		// the same conflict surface as an expired lease, so workers drop it.
		bounce()
		return "conflict", fmt.Errorf("server: job %s drained on budget exhaustion; dropping result for %s: %w",
			l.JobID, rec.Name, ErrLeaseConflict)
	}
	if job.tenant.Bandit.Tried(l.Arm) {
		bounce()
		return "conflict", fmt.Errorf("server: lease %d arm %d of %s already observed: %w", l.ID, l.Arm, l.JobID, ErrLeaseConflict)
	}
	if err := job.tenant.Bandit.Observe(l.Arm, rec.Accuracy); err != nil {
		sc.failJobLocked(job, err)
		bounce()
		return "failed", fmt.Errorf("server: job %s failed: %w", l.JobID, err)
	}
	job.tenant.RecordObservation(l.UCB, rec.Accuracy)
	if job.tenant.Bandit.Exhausted() {
		sc.markJobDoneLocked(job) // every candidate tried: the job drained
	}
	s := sc.scoreLocked(job)
	job.mu.Unlock()

	// The arm is Tried now, so the lease can be dropped without the arm
	// ever being selectable in between; claim the round in the same
	// critical section. The observation moved the job's posterior and σ̃,
	// so its new scalars are published here too.
	sc.coordMu.Lock()
	sc.dropLeaseLocked(l)
	delete(sc.failCounts, failKey{l.JobID, l.Arm})
	sc.rounds++
	rec.Round = sc.rounds
	sc.selIdx.publish(l.entry, s)
	sc.coordMu.Unlock()

	job.store.RecordModel(*rec)
	if sc.log != nil {
		walT0 := time.Now()
		wspan := settle.Child(opWALAppend, walT0)
		seq, err := sc.log.AppendModelRecorded(l.JobID, *rec)
		if err != nil {
			wspan.Fail(err)
			wspan.End()
			return "error", fmt.Errorf("server: logging result for %s/%s: %w", l.JobID, rec.Name, err)
		}
		wspan.SetAttrUint("wal_seq", seq)
		wspan.End()
		pickStageWALAppend.ObserveSince(walT0)
	}
	return "completed", nil
}

// failJobLocked marks a job as failed and retires all its untried arms, so
// pickers see it as exhausted and it drops out of scheduling. One
// ill-conditioned job must never take the whole service down. Callers hold
// job.mu.
func (sc *Scheduler) failJobLocked(job *Job, cause error) {
	job.failed = cause.Error()
	for arm := 0; arm < job.tenant.Bandit.NumArms(); arm++ {
		job.tenant.Bandit.Retire(arm) // no-op for tried arms
	}
	sc.markJobDoneLocked(job)
}

// markJobDoneLocked releases the job's admission slot exactly once — the
// job will never train another candidate (drained, failed, or
// budget-exhausted). Callers hold job.mu; the admission controller's
// mutex is a leaf, so calling into it under the job lock is safe.
func (sc *Scheduler) markJobDoneLocked(job *Job) {
	if job.doneNotified {
		return
	}
	job.doneNotified = true
	if sc.adm != nil {
		sc.adm.JobDone(job.Name)
	}
}

// Abandon settles a lease for a candidate that cannot be trained (e.g. it
// failed repeatedly): the arm is retired from selection without recording
// an observation, so neither the GP posterior nor the job's model history
// is polluted with a fabricated result. The round counter does not
// advance. It errors on a lease that is not outstanding.
func (sc *Scheduler) Abandon(l *Lease) error {
	job, err := sc.beginSettle(l)
	if err != nil {
		return err
	}
	job.settleMu.Lock() // abandoned-list order = WAL order, like Complete
	defer job.settleMu.Unlock()
	job.mu.Lock()
	fresh := !job.tenant.Bandit.Tried(l.Arm)
	if fresh {
		job.tenant.Bandit.Retire(l.Arm)
		job.abandoned = append(job.abandoned, l.Candidate.Name())
		if job.tenant.Bandit.Exhausted() {
			sc.markJobDoneLocked(job)
		}
	}
	s := sc.scoreLocked(job)
	job.mu.Unlock()
	sc.endSettle(l, s) // the arm is retired (Tried) now, never re-selectable
	finishLeaseSpan(l, "abandoned", nil)
	if fresh && sc.log != nil {
		if err := sc.log.AppendCandidateAbandoned(l.JobID, l.Candidate.Name()); err != nil {
			return fmt.Errorf("server: logging abandonment of %s/%s: %w", l.JobID, l.Candidate.Name(), err)
		}
	}
	return nil
}

// Release hands a lease back untrained (worker failure or engine drain);
// the arm becomes selectable again. It errors on a lease that is not
// outstanding or mid-settlement.
func (sc *Scheduler) Release(l *Lease) error {
	if l == nil {
		return fmt.Errorf("server: nil lease")
	}
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	return sc.releaseLocked(l)
}

// releaseLocked is Release under coordMu.
func (sc *Scheduler) releaseLocked(l *Lease) error {
	stored, ok := sc.leases[l.ID]
	if !ok || stored != l {
		return fmt.Errorf("server: lease %d (%s/%s) is not outstanding: %w", l.ID, l.JobID, l.Candidate.Name(), ErrLeaseConflict)
	}
	if stored.settling {
		return fmt.Errorf("server: lease %d (%s/%s) is being settled: %w", l.ID, l.JobID, l.Candidate.Name(), ErrLeaseConflict)
	}
	// No epoch bump: a release changes only the lease list, which the next
	// pick absorbs by rolling the job's shadow back to the matching
	// checkpoint — the bandit (and so the published gap) is untouched.
	sc.dropLeaseLocked(l)
	finishLeaseSpan(l, "released", nil)
	return nil
}

// How Settle disposed of a lease.
const (
	SettledCompleted = "completed" // result observed and recorded
	SettledReleased  = "released"  // failed run, candidate selectable again
	SettledAbandoned = "abandoned" // failed run at the retry budget, candidate retired
)

// Settle is the second half of the lease lifecycle, and the one place that
// decides what a failed run costs: a nil runErr completes the lease with
// (accuracy, cost); a failure releases it for retry, or — once the
// candidate has failed retryBudget times across every executor — abandons
// it, because a persistently failing candidate keeps its top UCB and would
// otherwise be re-leased forever, stalling every tenant. The failure is
// tallied only when the settle itself succeeds, in the release's own
// critical section: a report that loses to lease expiry (ErrLeaseConflict)
// burns no budget. It returns how the lease settled (with an error: the
// path that failed).
func (sc *Scheduler) Settle(l *Lease, accuracy, cost float64, runErr error) (string, error) {
	if l == nil {
		return "", fmt.Errorf("server: nil lease")
	}
	if runErr == nil {
		return SettledCompleted, sc.Complete(l, accuracy, cost)
	}
	key := failKey{l.JobID, l.Arm}
	sc.coordMu.Lock()
	failures := sc.failCounts[key] + 1
	if failures < sc.retryBudget {
		err := sc.releaseLocked(l)
		if err == nil {
			sc.failCounts[key] = failures
		}
		sc.coordMu.Unlock()
		return SettledReleased, err
	}
	sc.coordMu.Unlock()
	return SettledAbandoned, sc.Abandon(l)
}

// RunRound executes one multi-tenant scheduling round: pick a job, pick its
// next candidate, train it, and settle the result — the serialized
// single-device path, the one-lease case of the cycle the engine and the
// fleet drive concurrently. It returns false when no job has untried
// candidates, and the training error of a failed run (whose candidate was
// released for retry or, at the retry budget, abandoned).
func (sc *Scheduler) RunRound() (bool, error) {
	leases, err := sc.Grant(1, 0)
	if err != nil || len(leases) == 0 {
		return false, err
	}
	l := leases[0]
	// Train outside all locks: this is the long-running part.
	acc, cost, runErr := sc.trainer.Train(l.JobID, l.Candidate)
	_, err = sc.Settle(l, acc, cost, runErr)
	if runErr != nil {
		return false, errors.Join(fmt.Errorf("server: training %s/%s: %w", l.JobID, l.Candidate.Name(), runErr), err)
	}
	return true, err
}

// RunRounds executes up to n rounds, stopping early when all jobs are
// exhausted. It returns the number of rounds that ran.
func (sc *Scheduler) RunRounds(n int) (int, error) {
	ran := 0
	for ran < n {
		ok, err := sc.RunRound()
		if err != nil {
			return ran, err
		}
		if !ok {
			break
		}
		ran++
	}
	return ran, nil
}

// Feed stores one supervision example for a job: FeedBatch for n = 1.
func (sc *Scheduler) Feed(jobID string, input, output []float64) (int, error) {
	ids, err := sc.FeedBatch(jobID, [][]float64{input}, [][]float64{output})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// FeedBatch stores a request's supervision examples for a job (durably,
// when a WAL is attached: the whole request is one AppendBatch, so it pays
// one commit, not one per example). Examples are admitted and validated in
// order — with an admission controller configured each spends one token of
// the tenant's rate limit — and the first refusal ends the request: the
// examples before it are stored and committed, and their ids are returned
// together with the refusal (an error wrapping admission.ErrQuotaExceeded
// is HTTP 429). A failed commit acknowledges no ids. FeedBatch takes no
// scheduler-wide lock: schema validation reads immutable job fields and
// the examples land in the per-task store.
func (sc *Scheduler) FeedBatch(jobID string, inputs, outputs [][]float64) ([]int, error) {
	job, ok := sc.Job(jobID)
	if !ok {
		return nil, errNoJob(jobID)
	}
	if len(inputs) != len(outputs) {
		return nil, fmt.Errorf("server: %d inputs vs %d outputs", len(inputs), len(outputs))
	}
	ids := make([]int, 0, len(inputs))
	var refused error
	for i, input := range inputs {
		if refused = sc.admitExample(job, input, outputs[i]); refused != nil {
			break
		}
		ids = append(ids, job.store.Feed(input, outputs[i]))
	}
	if sc.log != nil {
		events := make([]storage.Event, len(ids))
		for i, id := range ids {
			events[i] = storage.Event{Type: storage.EventExampleFed, Job: jobID, Example: id, Input: inputs[i], Output: outputs[i]}
		}
		if _, err := sc.log.AppendBatch(events); err != nil {
			return nil, fmt.Errorf("server: logging %d examples for %q: %w", len(ids), jobID, err)
		}
	}
	return ids, refused
}

// admitExample passes one fed example through the tenant's rate limit and
// the job's schema, and refuses NaN and ±Inf: the store would take them
// but the WAL cannot log them, so memory would run ahead of the log.
func (sc *Scheduler) admitExample(job *Job, input, output []float64) error {
	if sc.adm != nil {
		if err := sc.adm.AdmitOp(job.Name); err != nil {
			return fmt.Errorf("server: feeding %q: %w", job.ID, err)
		}
	}
	if want := job.Program.Input.TotalElements(); len(input) != want {
		return fmt.Errorf("server: input has %d elements, schema wants %d", len(input), want)
	}
	if want := job.Program.Output.TotalElements(); len(output) != want {
		return fmt.Errorf("server: output has %d elements, schema wants %d", len(output), want)
	}
	if err := checkFinite("input", input); err != nil {
		return err
	}
	return checkFinite("output", output)
}

// Refine toggles a supervision example for a job (durably, when a WAL is
// attached).
func (sc *Scheduler) Refine(jobID string, exampleID int, enabled bool) error {
	job, ok := sc.Job(jobID)
	if !ok {
		return errNoJob(jobID)
	}
	if err := job.store.Refine(exampleID, enabled); err != nil {
		return err
	}
	if sc.log != nil {
		if err := sc.log.AppendExampleRefined(jobID, exampleID, enabled); err != nil {
			return fmt.Errorf("server: logging refine for %q: %w", jobID, err)
		}
	}
	return nil
}

// Infer applies the best model so far to an input. The simulated model
// produces a deterministic pseudo-prediction whose entries depend on the
// input and the model name; it returns an error before the first model
// completes (the user has no model yet). Batched and streaming serving
// live in serving.go on the same InferSession.
func (sc *Scheduler) Infer(jobID string, input []float64) ([]float64, string, error) {
	sess, err := sc.NewInferSession(jobID)
	if err != nil {
		return nil, "", err
	}
	inferRequests.With("single").Inc()
	out, err := sess.Apply(input)
	if err != nil {
		return nil, "", err
	}
	return out, sess.Model, nil
}

// Status summarizes a job for the status endpoint.
type Status struct {
	ID            string `json:"id"`
	Name          string `json:"name"`
	Template      string `json:"template"`
	Class         string `json:"class,omitempty"` // admission service class
	NumCandidates int    `json:"num_candidates"`
	Trained       int    `json:"trained"`
	Examples      int    `json:"examples"`
	Enabled       int    `json:"enabled"`
	// CostUsed is the total GPU cost this job's bandit has paid.
	CostUsed float64 `json:"cost_used"`
	// BudgetExhausted marks a job drained because its tenant's budget ran
	// out; remaining candidates were retired.
	BudgetExhausted bool                  `json:"budget_exhausted,omitempty"`
	Failed          string                `json:"failed,omitempty"` // non-empty: job retired with this cause
	Abandoned       []string              `json:"abandoned,omitempty"`
	Best            *storage.ModelRecord  `json:"best,omitempty"`
	Models          []storage.ModelRecord `json:"models"`
}

// replayTaskLocked feeds each completed run recorded in a recovered job's
// store back into its bandit, so the GP posterior resumes where the
// previous process stopped. The job was built over the recovered store, so
// its examples and model records are already in place. Callers hold job.mu
// and coordMu (for the round counter).
func (sc *Scheduler) replayTaskLocked(job *Job) error {
	candidateIdx := make(map[string]int, len(job.Candidates))
	for i, c := range job.Candidates {
		candidateIdx[c.Name()] = i
	}
	// A posterior update that fails mid-replay (the job is ill-conditioned
	// on replay too) retires the job; its model records stay in the store —
	// recorded results must never silently vanish.
	failed := job.failed != ""
	for _, m := range job.store.Models() {
		arm, ok := candidateIdx[m.Name]
		if !ok {
			return fmt.Errorf("server: recovered run %q does not match a candidate of %q", m.Name, job.ID)
		}
		if !failed {
			if job.tenant.Bandit.Tried(arm) {
				return fmt.Errorf("server: recovered run replays candidate %q of %q twice", m.Name, job.ID)
			}
			ucb := job.tenant.Bandit.UCB(arm)
			if err := job.tenant.Bandit.Observe(arm, m.Accuracy); err != nil {
				sc.failJobLocked(job, err)
				failed = true
			} else {
				job.tenant.RecordObservation(ucb, m.Accuracy)
			}
		}
		if m.Round > sc.rounds {
			sc.rounds = m.Round
		}
	}
	return nil
}

// Status reports a job's current state.
func (sc *Scheduler) Status(jobID string) (Status, error) {
	job, ok := sc.Job(jobID)
	if !ok {
		return Status{}, errNoJob(jobID)
	}
	st := Status{
		ID:            job.ID,
		Name:          job.Name,
		Template:      job.Template,
		Class:         string(job.Class),
		NumCandidates: len(job.Candidates),
		Models:        job.store.Models(),
		Examples:      len(job.store.Examples()),
		Enabled:       job.store.EnabledCount(),
	}
	job.mu.Lock()
	st.Failed = job.failed
	st.Abandoned = append([]string(nil), job.abandoned...)
	st.CostUsed = job.tenant.Bandit.CumulativeCost()
	st.BudgetExhausted = job.budgetExhausted
	job.mu.Unlock()
	st.Trained = len(st.Models)
	if best, ok := job.store.Best(); ok {
		st.Best = &best
	}
	return st, nil
}
