// Package easeml is the public API of this ease.ml reproduction — the
// declarative machine-learning service platform with multi-tenant,
// cost-aware model selection of Li et al. (VLDB 2018, arXiv:1708.07308).
//
// Three entry points cover the system's three usage modes:
//
//   - ParseJob turns a declarative program (the Figure 2 DSL) into the
//     matched template, the candidate-model list and the generated code —
//     the front half of the platform, usable standalone.
//
//   - NewService starts an in-process ease.ml service: submitted jobs are
//     trained on a simulated GPU pool under the HYBRID multi-tenant
//     scheduler, with feed/refine/infer and an http.Handler for remote use.
//     With ServiceConfig.Workers > 0 the service gains the asynchronous
//     multi-device execution engine (internal/engine): StartEngine /
//     StopEngine / DrainEngine train candidates concurrently across the
//     pool instead of one at a time. With ServiceConfig.DataDir set (use
//     OpenService), every mutation is written ahead to a log and the
//     whole service state — jobs, examples, trained models — survives a
//     crash and is recovered at the next boot. With ServiceConfig.Fleet
//     (or FleetAddr) the service coordinates remote easeml-worker agents
//     over the internal/fleet lease protocol: elastic workers join, train
//     leased candidates and heartbeat; work on a worker that dies is
//     re-queued when its lease TTL lapses.
//
//   - NewSelection runs the paper's core contribution as a library: given a
//     (quality, cost) environment and per-model kernel features, it drives
//     multi-tenant, cost-aware GP-UCB model selection under any of the
//     paper's scheduling policies.
package easeml

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/gp"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/templates"
)

// Job is a parsed declarative job: the validated program, its matched
// template and the generated candidate models and code.
type Job struct {
	Name       string
	Program    string   // normalized concrete syntax
	Template   string   // matched Figure 4 template name
	Workload   string   // human-readable workload class
	Candidates []string // candidate model names (incl. normalization variants)
	Julia      string   // system data types in Julia format (Figure 3)
	Python     string   // importable Python stub (Figure 3)
}

// ParseJob validates a declarative program and produces the candidate
// models and generated code without starting a service.
func ParseJob(name, program string) (*Job, error) {
	prog, err := dsl.ParseCached(program)
	if err != nil {
		return nil, err
	}
	cands, tpl, err := templates.GenerateCached(prog)
	if err != nil {
		return nil, err
	}
	job := &Job{
		Name:     name,
		Program:  prog.String(),
		Template: tpl.Name,
		Workload: tpl.Workload,
		Julia:    codegen.JuliaTypes(prog),
		Python:   codegen.PythonLibrary(name, "http://localhost:9000", prog),
	}
	for _, c := range cands {
		job.Candidates = append(job.Candidates, c.Name())
	}
	return job, nil
}

// Service is an in-process ease.ml service instance.
type Service struct {
	sched   *server.Scheduler
	pool    *cluster.Pool
	trainer *server.SimTrainer
	pprof   bool
	engine  *engine.Engine        // nil unless Workers > 0
	log     *storage.Log          // nil unless DataDir is set
	coord   *fleet.Coordinator    // nil unless Fleet/FleetAddr enabled
	adm     *admission.Controller // nil unless Quotas/DefaultClass set
	fleetLn net.Listener          // nil unless FleetAddr is set
	fleetHS *http.Server
	closed  atomic.Bool // set by Close; flips /readyz to 503 for drain

	// Recovered summarizes what boot-time recovery restored from DataDir:
	// zero values for a fresh directory or an in-memory service.
	Recovered RecoveryInfo
}

// RecoveryInfo reports what OpenService restored from a data directory.
type RecoveryInfo struct {
	Jobs            int // jobs resubmitted from the log
	Models          int // completed training runs replayed into the bandits
	Examples        int // supervision examples restored
	WALEvents       int // WAL tail events replayed on top of the checkpoint
	ExpiredLeases   int // lease-expiry records in the WAL tail (fleet history)
	PreemptedLeases int // lease-preemption records in the WAL tail (fleet history)
	BudgetExhausted int // jobs recovered in the drained, budget-exhausted state
}

// ServiceConfig parameterizes NewService. Zero values select the defaults
// noted per field.
type ServiceConfig struct {
	// GPUs is the simulated pool size (default 24, the paper's deployment).
	GPUs int
	// Seed fixes the simulated training surfaces (default 1).
	Seed int64
	// Addr is the advertised server address baked into generated code
	// (default "http://localhost:9000").
	Addr string
	// Alpha is the pool's scaling exponent in (0, 1]: one job on g GPUs
	// runs g^Alpha times faster (default 0.9, the paper's near-linear
	// InfiniBand setup; values outside the domain panic in cluster.NewPool).
	// Lower values model workloads that scale poorly across devices — the
	// regime where the async engine's multi-device strategy wins.
	Alpha float64
	// Workers, when positive, attaches the async execution engine: that
	// many concurrent trainers, each accounted on its own device slice of
	// the pool (§5.3.2's multi-device strategy). Zero keeps the serialized
	// single-device strategy driven by RunRounds.
	Workers int
	// TrainDelay makes each simulated training take real wall time, so
	// engine concurrency is observable in benchmarks (default instant).
	TrainDelay time.Duration
	// DataDir, when set, makes the service durable: every state mutation
	// is appended to a write-ahead log in this directory before being
	// acknowledged, and OpenService recovers jobs, examples and recorded
	// models from the snapshot + WAL at boot (see internal/storage).
	// In-flight leases of a crashed process are re-queued, not lost.
	// Requires OpenService (NewService panics on a DataDir it cannot
	// open).
	DataDir string
	// WALSegmentBytes is the write-ahead log's segment roll threshold: a
	// record that would push the active wal-<firstseq>.wal past it seals
	// the segment and opens the next; Compact retires every sealed segment
	// its checkpoint (snapshot.wal) covers. Zero means the storage default
	// (4 MiB); ignored without DataDir. A data directory holding a file of
	// an earlier release (snapshot.json, wal-*.jsonl, wal.jsonl) is
	// refused: this release reads only snapshot.wal and wal-*.wal.
	WALSegmentBytes int64
	// WALSyncInterval is accepted and ignored.
	//
	// Deprecated: the WAL has one commit discipline — every batch is
	// fsynced as soon as the committer has work, a batch being whatever
	// arrived during the previous fsync, and every append is acknowledged
	// only after its fsync. There is no linger to size and no
	// fsync-per-append mode to select; the field remains so existing
	// callers keep compiling.
	WALSyncInterval time.Duration
	// Fleet enables the distributed-worker coordinator (internal/fleet):
	// remote easeml-worker agents register, lease candidates, heartbeat
	// and report results over the /fleet/* endpoints, which are mounted on
	// Handler alongside the service API. Leases gain a TTL: work on a
	// worker that goes silent is re-queued by the expiry sweeper.
	Fleet bool
	// FleetAddr, when set, additionally serves the fleet protocol on a
	// dedicated listen address (e.g. ":9001", or "127.0.0.1:0" for an
	// ephemeral port — read the bound address back with
	// Service.FleetAddr). Setting it implies Fleet.
	FleetAddr string
	// LeaseTTL is the fleet lease time-to-live: how long a leased
	// candidate survives without a worker heartbeat before it is
	// re-queued (default 10s). Ignored without Fleet/FleetAddr — the
	// in-process engine settles its leases synchronously and runs without
	// a TTL.
	LeaseTTL time.Duration
	// FleetMaxInFlight caps the total outstanding leases the fleet
	// coordinator grants (0 = no cap). When the cap is saturated and a
	// guaranteed-class tenant has selectable work, the coordinator
	// preempts an outstanding best-effort lease to make room.
	FleetMaxInFlight int
	// Quotas enables tenant admission control: per-tenant service classes
	// (guaranteed / standard / best-effort weighted fair sharing),
	// concurrent-job caps, Submit/Feed rate limits and GPU cost budgets.
	// Tenant identity is the name jobs are submitted under. Over-quota
	// operations fail with HTTP 429 {"error", "code": "quota_exceeded"};
	// budget-exhausted tenants have their jobs drained gracefully (WAL
	// logged, so recovery agrees). Leave nil (with DefaultClass empty) to
	// admit everything at standard priority.
	Quotas map[string]TenantQuota
	// DefaultClass is the class of tenants without a Quotas entry
	// ("standard" when empty). Setting it (or Quotas) enables admission
	// control.
	DefaultClass string
	// Pprof mounts net/http/pprof's profiling handlers under /debug/pprof/
	// on the service handler (the admin surface). Off by default: the
	// profiler exposes goroutine dumps and CPU profiles, so enable it only
	// where the admin endpoint is trusted (easeml-server's -pprof flag).
	// Enabling it also arms the runtime's mutex profiler (1 in 100
	// contention events) and block profiler (one sample per 1 ms blocked)
	// so contention shows up under /debug/pprof/mutex and
	// /debug/pprof/block.
	Pprof bool
	// Logger, when set, receives the fleet coordinator's structured
	// diagnostics (worker churn, lease lifecycle with trace IDs). Nil keeps
	// the coordinator silent — tests stay quiet; easeml-server passes its
	// process logger.
	Logger *slog.Logger
	// TraceBuffer sizes the tracing flight recorder: the span capacity of
	// each in-memory ring (one for recent spans, one for retained
	// slow/failed traces — see GET /admin/traces). Zero keeps the current
	// capacity (telemetry.DefaultTraceBuffer, 4096, unless something
	// resized it); the recorder is process-global, so the last service
	// configured wins. The easeml-server -trace-buffer flag feeds this.
	TraceBuffer int
}

// TenantQuota declares one tenant's admission envelope. Zero fields mean
// "unlimited"; the zero TenantQuota admits everything at standard
// priority. The JSON tags are the -quota-config file schema.
type TenantQuota struct {
	// Class is "guaranteed", "standard" or "best-effort" (default
	// standard). Guaranteed tenants get the largest fair-share weight and
	// may preempt best-effort leases; best-effort leases are preemptible.
	Class string `json:"class,omitempty"`
	// MaxJobs caps the tenant's concurrently unfinished jobs.
	MaxJobs int `json:"max_jobs,omitempty"`
	// RatePerSec rate-limits the tenant's Submit/Feed operations through a
	// token bucket of capacity Burst (default max(1, ⌈RatePerSec⌉)).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      int     `json:"burst,omitempty"`
	// Budget bounds the total GPU cost the tenant's jobs may pay; once
	// exhausted the jobs drain gracefully (remaining candidates retired).
	Budget float64 `json:"budget,omitempty"`
}

// QuotaFile is the JSON schema of an easeml-server -quota-config file.
type QuotaFile struct {
	DefaultClass string                 `json:"default_class,omitempty"`
	Tenants      map[string]TenantQuota `json:"tenants,omitempty"`
}

// LoadQuotaFile reads and validates a -quota-config JSON file.
func LoadQuotaFile(path string) (QuotaFile, error) {
	cfg, err := admission.LoadConfig(path)
	if err != nil {
		return QuotaFile{}, err
	}
	out := QuotaFile{DefaultClass: string(cfg.DefaultClass)}
	if len(cfg.Tenants) > 0 {
		out.Tenants = make(map[string]TenantQuota, len(cfg.Tenants))
		for tenant, q := range cfg.Tenants {
			out.Tenants[tenant] = TenantQuota{
				Class:      string(q.Class),
				MaxJobs:    q.MaxJobs,
				RatePerSec: q.RatePerSec,
				Burst:      q.Burst,
				Budget:     q.Budget,
			}
		}
	}
	return out, nil
}

// NewService creates a service with a simulated GPU pool and the HYBRID
// multi-tenant scheduler. It panics when OpenService would fail — I/O
// (opening ServiceConfig.DataDir, binding ServiceConfig.FleetAddr) or an
// invalid ServiceConfig.Quotas declaration (unknown class, negative
// bound). The zero-friction constructor stays available for in-memory
// services with statically known-good quotas; deployments setting those
// fields from user input should call OpenService and handle the error.
func NewService(cfg ServiceConfig) *Service {
	s, err := OpenService(cfg)
	if err != nil {
		panic(fmt.Sprintf("easeml: NewService: %v (use OpenService with a DataDir)", err))
	}
	return s
}

// OpenService creates a service with a simulated GPU pool and the HYBRID
// multi-tenant scheduler. With ServiceConfig.DataDir set it opens (or
// creates) the durable data directory, recovers all jobs, examples and
// recorded models from snapshot + WAL, and resumes model selection from
// the recovered posteriors; training then picks up where the previous
// process stopped.
func OpenService(cfg ServiceConfig) (*Service, error) {
	if cfg.GPUs == 0 {
		cfg.GPUs = 24
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.9
	}
	if cfg.TraceBuffer > 0 {
		telemetry.DefaultRecorder().SetCapacity(cfg.TraceBuffer)
	}
	pool := cluster.NewPool(cfg.GPUs, cfg.Alpha)
	trainer := server.NewSimTrainer(pool, cfg.Seed)
	trainer.Delay = cfg.TrainDelay
	sched := server.NewScheduler(trainer, nil, cfg.Addr)
	s := &Service{sched: sched, pool: pool, trainer: trainer, pprof: cfg.Pprof}
	if len(cfg.Quotas) > 0 || cfg.DefaultClass != "" {
		// Admission is installed before recovery, so recovered jobs pick up
		// their tenant's class and re-register with the controller.
		admCfg := admission.Config{DefaultClass: admission.Class(cfg.DefaultClass)}
		if len(cfg.Quotas) > 0 {
			admCfg.Tenants = make(map[string]admission.Quota, len(cfg.Quotas))
			for tenant, q := range cfg.Quotas {
				admCfg.Tenants[tenant] = admission.Quota{
					Class:      admission.Class(q.Class),
					MaxJobs:    q.MaxJobs,
					RatePerSec: q.RatePerSec,
					Burst:      q.Burst,
					Budget:     q.Budget,
				}
			}
		}
		ctrl, err := admission.NewController(admCfg)
		if err != nil {
			return nil, fmt.Errorf("easeml: quota configuration: %w", err)
		}
		sched.SetAdmission(ctrl)
		s.adm = ctrl
	}
	if cfg.DataDir != "" {
		log, rec, err := storage.OpenDirOptions(cfg.DataDir, storage.LogOptions{
			SegmentBytes: cfg.WALSegmentBytes,
		})
		if err != nil {
			return nil, err
		}
		if err := sched.Recover(rec, log); err != nil {
			log.Close()
			return nil, err
		}
		s.log = log
		s.Recovered.Jobs = len(rec.Jobs)
		s.Recovered.WALEvents = rec.Events
		s.Recovered.ExpiredLeases = len(rec.Expired)
		s.Recovered.PreemptedLeases = len(rec.Preempted)
		s.Recovered.BudgetExhausted = len(rec.BudgetExhausted)
		for _, j := range sched.Jobs() {
			st, serr := sched.Status(j.ID)
			if serr != nil {
				continue
			}
			s.Recovered.Models += st.Trained
			s.Recovered.Examples += st.Examples
		}
	}
	if cfg.Workers > 0 {
		devices := cfg.Workers
		if devices > cfg.GPUs {
			devices = cfg.GPUs
		}
		trainer.Devices = devices
		s.engine = engine.New(sched, trainer, engine.Config{Workers: cfg.Workers})
	}
	if cfg.Pprof {
		// -pprof arms the contention profilers too: without these the mutex
		// and block profiles under /debug/pprof are permanently empty.
		runtime.SetMutexProfileFraction(100)
		runtime.SetBlockProfileRate(int(time.Millisecond))
	}
	if cfg.Fleet || cfg.FleetAddr != "" {
		s.coord = fleet.NewCoordinator(sched, fleet.CoordinatorConfig{
			LeaseTTL:    cfg.LeaseTTL,
			Seed:        cfg.Seed,
			MaxInFlight: cfg.FleetMaxInFlight,
			Logger:      cfg.Logger,
		})
		s.coord.Start()
		if cfg.FleetAddr != "" {
			ln, err := net.Listen("tcp", cfg.FleetAddr)
			if err != nil {
				s.coord.Stop()
				if s.log != nil {
					s.log.Close()
				}
				return nil, fmt.Errorf("easeml: listening on fleet address %q: %w", cfg.FleetAddr, err)
			}
			s.fleetLn = ln
			s.fleetHS = &http.Server{Handler: s.coord.Handler()}
			go func() { _ = s.fleetHS.Serve(ln) }()
		}
	}
	return s, nil
}

// Compact folds the write-ahead log into the data directory's snapshot,
// bounding boot-time replay. It errors for a service without a DataDir.
func (s *Service) Compact() error { return s.sched.Compact() }

// Close shuts the service's background machinery down: the fleet
// coordinator's sweeper and listener stop, then (when durable) the WAL is
// compacted and closed. The service must be quiesced first (StopEngine);
// mutations after Close fail. It is a no-op for a plain in-memory service.
func (s *Service) Close() error {
	s.closed.Store(true) // /readyz answers 503 from here on
	if s.coord != nil {
		s.coord.Stop()
	}
	if s.fleetHS != nil {
		_ = s.fleetHS.Close()
	}
	if s.log == nil {
		return nil
	}
	// Compaction on clean shutdown makes the next boot snapshot-only; if
	// it fails the un-compacted WAL still recovers everything.
	_ = s.sched.Compact()
	return s.log.Close()
}

// Submit registers a declarative job and returns its parsed form with the
// service-assigned id in Name… the returned Job's Name is the job id.
func (s *Service) Submit(name, program string) (*Job, error) {
	j, err := s.sched.Submit(name, program)
	if err != nil {
		return nil, err
	}
	if s.engine != nil {
		s.engine.Kick() // wake an idle engine for the new job
	}
	out := &Job{
		Name:     j.ID,
		Program:  j.Program.String(),
		Template: j.Template,
		Julia:    j.Julia,
		Python:   j.Python,
	}
	for _, c := range j.Candidates {
		out.Candidates = append(out.Candidates, c.Name())
	}
	return out, nil
}

// Feed registers a supervision example and returns its id.
func (s *Service) Feed(jobID string, input, output []float64) (int, error) {
	return s.sched.Feed(jobID, input, output)
}

// FeedBatch registers supervision examples (inputs[i] pairs with
// outputs[i]) as one durable commit and returns their ids. Examples are
// taken in order; on an error the returned ids are the examples before the
// refused one, which are committed.
func (s *Service) FeedBatch(jobID string, inputs, outputs [][]float64) ([]int, error) {
	return s.sched.FeedBatch(jobID, inputs, outputs)
}

// Refine toggles a supervision example.
func (s *Service) Refine(jobID string, exampleID int, enabled bool) error {
	return s.sched.Refine(jobID, exampleID, enabled)
}

// Infer applies the best model so far.
func (s *Service) Infer(jobID string, input []float64) (output []float64, model string, err error) {
	return s.sched.Infer(jobID, input)
}

// InferBatch applies the best model to many inputs under one serving
// session: one job lookup, one best-model resolution, one model for every
// output.
func (s *Service) InferBatch(jobID string, inputs [][]float64) (outputs [][]float64, model string, err error) {
	return s.sched.InferBatch(jobID, inputs)
}

// Status reports a job's trained models and current best.
func (s *Service) Status(jobID string) (server.Status, error) { return s.sched.Status(jobID) }

// RunRounds executes up to n multi-tenant scheduling rounds and reports how
// many ran (fewer when all jobs are exhausted).
func (s *Service) RunRounds(n int) (int, error) { return s.sched.RunRounds(n) }

// GPUTime returns the virtual GPU-pool clock: total serialized training
// time consumed so far.
func (s *Service) GPUTime() float64 { return s.pool.Now() }

// Handler exposes the service over HTTP (see internal/server for the
// endpoint list); internal/client provides the matching Go client. When the
// service has an engine, /admin/start|stop control it and GET /metrics
// carries its easeml_engine_* families. With the fleet enabled, the
// /fleet/* worker protocol is mounted alongside the service API and GET
// /admin/fleet reports the worker registry.
func (s *Service) Handler() http.Handler {
	api := server.NewAPI(s.sched).WithReadiness(s.Ready)
	if s.engine != nil {
		api.WithEngine(engineControl{s})
	}
	if s.adm != nil {
		api.WithAdmission(s.adm)
	}
	if s.coord == nil && !s.pprof {
		return api.Handler()
	}
	mux := http.NewServeMux()
	mux.Handle("/", api.Handler())
	if s.coord != nil {
		api.WithFleet(s.coord)
		mux.Handle("/fleet/", s.coord.Handler())
	}
	if s.pprof {
		// Explicit registrations, not the package's init side effect on
		// http.DefaultServeMux — the service handler never serves the
		// default mux, and profiling must stay strictly opt-in.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// SelectionMetrics snapshots the scheduler's pick-path counters: selection
// index epoch/heap/shadow traffic plus the aggregated per-job bandit cache
// tallies (also served by GET /metrics as easeml_selection_events_total and
// easeml_bandit_cache_events_total).
func (s *Service) SelectionMetrics() server.SelectionStats { return s.sched.SelectionStats() }

// FleetStatus snapshots the fleet's worker registry and lease counters; ok
// is false when the service runs without a fleet coordinator.
func (s *Service) FleetStatus() (server.FleetStatus, bool) {
	if s.coord == nil {
		return server.FleetStatus{}, false
	}
	return s.coord.FleetStatus(), true
}

// Ready reports whether the service can take traffic: OpenService has
// finished (WAL recovery replayed, the fleet listener — when configured —
// bound and accepting), Close has not begun and the WAL is not poisoned by
// a failed write or fsync (every later mutation fails; restart to recover
// what reached the disk). GET /readyz serves this; /healthz stays 200
// regardless, distinguishing "alive" from "ready".
func (s *Service) Ready() bool {
	return !s.closed.Load() && (s.log == nil || s.log.Err() == nil)
}

// FleetAddr returns the bound address of the dedicated fleet listener
// (empty without ServiceConfig.FleetAddr). With an ephemeral ":0" address
// this is how callers learn the actual port.
func (s *Service) FleetAddr() string {
	if s.fleetLn == nil {
		return ""
	}
	return s.fleetLn.Addr().String()
}

// StartEngine launches the async execution engine in the background: the
// worker pool leases work through the scheduler's two-phase API and keeps
// its device slice busy until StopEngine. It errors when the service was
// built without Workers or the engine is already running.
func (s *Service) StartEngine() error {
	if s.engine == nil {
		return fmt.Errorf("easeml: service has no engine (set ServiceConfig.Workers)")
	}
	return s.engine.Start()
}

// StopEngine gracefully stops the engine: running trainings finish, queued
// leases are handed back, and it returns once every lease is settled.
func (s *Service) StopEngine() error {
	if s.engine == nil {
		return fmt.Errorf("easeml: service has no engine (set ServiceConfig.Workers)")
	}
	return s.engine.Stop()
}

// EngineMetrics snapshots the engine counters; ok is false when the service
// has no engine.
func (s *Service) EngineMetrics() (engine.Metrics, bool) {
	if s.engine == nil {
		return engine.Metrics{}, false
	}
	return s.engine.Metrics(), true
}

// VirtualTimes reports the pool's virtual-time accounting: the makespan of
// everything trained so far and what the serialized single-device strategy
// would have taken for the same runs (§5.3.2's comparison).
func (s *Service) VirtualTimes() (makespan, singleDevice float64) {
	return s.pool.Makespan(), s.pool.SingleDeviceTime()
}

// EngineRunSummary reports one DrainEngine batch run.
type EngineRunSummary struct {
	Rounds       int64         // trainings completed by this drain
	Wall         time.Duration // wall-clock duration of the drain
	Makespan     float64       // virtual multi-device completion time (all runs so far)
	SingleDevice float64       // virtual serialized single-device time for the same runs
	Speedup      float64       // SingleDevice / Makespan
	Utilization  float64       // mean worker busy fraction
}

// DrainEngine runs the engine synchronously until every job's candidate
// list is exhausted (batch mode: examples and benchmarks), returning the
// makespan-vs-serialized summary. It shares the background engine's
// running guard, so it errors when the service has no engine or the engine
// is already running — a concurrent StartEngine cannot race onto the same
// scheduler.
func (s *Service) DrainEngine(ctx context.Context) (EngineRunSummary, error) {
	if s.engine == nil {
		return EngineRunSummary{}, fmt.Errorf("easeml: service has no engine (set ServiceConfig.Workers)")
	}
	before := s.engine.Metrics()
	start := time.Now()
	// Drain errors (ErrInterrupted) on any exit before the work ran dry —
	// caller cancellation or a concurrent StopEngine — so a partial drain
	// can never masquerade as a complete summary.
	if err := s.engine.Drain(ctx); err != nil {
		return EngineRunSummary{}, fmt.Errorf("easeml: engine drain aborted: %w", err)
	}
	m := s.engine.Metrics()
	makespan, single := s.VirtualTimes()
	sum := EngineRunSummary{
		Rounds:       m.Completed - before.Completed,
		Wall:         time.Since(start),
		Makespan:     makespan,
		SingleDevice: single,
	}
	// Engine counters are cumulative across runs; the summary reports this
	// drain alone, so utilization comes from the busy/elapsed deltas.
	busyDelta := sumBusy(m.PerWorker) - sumBusy(before.PerWorker)
	if elapsedDelta := m.Elapsed - before.Elapsed; elapsedDelta > 0 && m.Workers > 0 {
		sum.Utilization = float64(busyDelta) / (float64(elapsedDelta) * float64(m.Workers))
	}
	if makespan > 0 {
		sum.Speedup = single / makespan
	}
	return sum, nil
}

func sumBusy(ws []engine.WorkerStats) time.Duration {
	var busy time.Duration
	for _, w := range ws {
		busy += w.Busy
	}
	return busy
}

// engineControl adapts the service's engine to the server admin surface,
// folding in the pool's virtual-time accounting.
type engineControl struct{ s *Service }

func (c engineControl) Start() error { return c.s.StartEngine() }
func (c engineControl) Stop() error  { return c.s.StopEngine() }

func (c engineControl) Status() server.EngineStatus {
	m, _ := c.s.EngineMetrics()
	st := server.EngineStatus{
		Running:     m.Running,
		Workers:     m.Workers,
		Completed:   m.Completed,
		Released:    m.Released,
		Abandoned:   m.Abandoned,
		Errors:      m.Errors,
		InFlight:    m.InFlight,
		QueueDepth:  m.QueueDepth,
		Uptime:      m.Elapsed,
		Utilization: m.Utilization,
	}
	for _, w := range m.PerWorker {
		st.PerWorker = append(st.PerWorker, server.EngineWorkerStatus(w))
	}
	st.VirtualMakespan, st.VirtualSingleDevice = c.s.VirtualTimes()
	return st
}

// Policy selects a multi-tenant user-scheduling policy.
type Policy string

// The scheduling policies of the paper.
const (
	PolicyHybrid     Policy = "hybrid"      // §4.4, the ease.ml default
	PolicyGreedy     Policy = "greedy"      // §4.3, Algorithm 2
	PolicyRoundRobin Policy = "round-robin" // §4.2
	PolicyRandom     Policy = "random"      // §5.3 baseline
	PolicyFCFS       Policy = "fcfs"        // §4.1 strawman
)

// SelectionConfig parameterizes a multi-tenant model-selection run over a
// recorded or simulated environment.
type SelectionConfig struct {
	// Quality[user][model] are the observed accuracies; required.
	Quality [][]float64
	// Cost[user][model] are the execution costs; nil means unit costs.
	Cost [][]float64
	// Features[model] are kernel feature vectors (e.g. quality vectors on
	// historical users); nil derives 1-D index features, which disables
	// cross-model generalization but keeps the system functional.
	Features [][]float64
	// Policy is the user-scheduling policy (default PolicyHybrid).
	Policy Policy
	// CostAware enables the §3.2 cost-aware bandit rule.
	CostAware bool
	// Seed drives the random policy (default 1).
	Seed int64
	// Weights optionally switches the user-picking phase to the weighted
	// aggregation extension (§4.5): tenant i's greedy score is scaled by
	// Weights[i]. Only valid with PolicyGreedy or the default PolicyHybrid
	// (which degrades to plain weighted greedy, without freeze detection).
	Weights []float64
	// GuaranteeWindow, when positive, wraps the chosen policy in a hard
	// service rule: no active tenant waits more than this many rounds
	// between serves (§4.5's per-user hard rules).
	GuaranteeWindow int
}

// Selection is a running multi-tenant model-selection instance.
type Selection struct {
	sim *core.Simulation
	env *core.MatrixEnv
}

// NewSelection builds a Selection.
func NewSelection(cfg SelectionConfig) (*Selection, error) {
	if len(cfg.Quality) == 0 {
		return nil, fmt.Errorf("easeml: Quality matrix is required")
	}
	cost := cfg.Cost
	if cost == nil {
		cost = make([][]float64, len(cfg.Quality))
		for i := range cost {
			cost[i] = make([]float64, len(cfg.Quality[i]))
			for j := range cost[i] {
				cost[i][j] = 1
			}
		}
	}
	env := &core.MatrixEnv{Quality: cfg.Quality, Costs: cost}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	maxK := 0
	for i := 0; i < env.NumUsers(); i++ {
		if k := env.NumModels(i); k > maxK {
			maxK = k
		}
	}
	features := cfg.Features
	if features == nil {
		features = make([][]float64, maxK)
		for j := range features {
			features[j] = []float64{float64(j) / float64(maxK)}
		}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	var picker core.UserPicker
	switch cfg.Policy {
	case PolicyHybrid, "":
		picker = core.NewHybridPicker()
	case PolicyGreedy:
		picker = &core.GreedyPicker{}
	case PolicyRoundRobin:
		picker = &core.RoundRobinPicker{}
	case PolicyRandom:
		picker = &core.RandomPicker{Rng: rand.New(rand.NewSource(seed))}
	case PolicyFCFS:
		picker = core.FCFSPicker{}
	default:
		return nil, fmt.Errorf("easeml: unknown policy %q", cfg.Policy)
	}
	if len(cfg.Weights) > 0 {
		switch cfg.Policy {
		case PolicyHybrid, PolicyGreedy, "":
			picker = &core.WeightedGreedyPicker{Weights: cfg.Weights}
		default:
			return nil, fmt.Errorf("easeml: Weights require the greedy or hybrid policy, not %q", cfg.Policy)
		}
	}
	if cfg.GuaranteeWindow > 0 {
		picker = &core.GuaranteedServicePicker{Inner: picker, Window: cfg.GuaranteeWindow}
	}
	var mean float64
	var n float64
	for _, row := range cfg.Quality {
		for _, q := range row {
			mean += q
			n++
		}
	}
	sim, err := core.NewSimulation(core.SimConfig{
		Env:         env,
		UserPicker:  picker,
		ModelPicker: core.UCBModelPicker{},
		Kernel:      gp.RBF{Variance: 0.05, LengthScale: 0.5},
		Features:    features,
		CostAware:   cfg.CostAware,
		PriorMean:   mean / n,
	})
	if err != nil {
		return nil, err
	}
	return &Selection{sim: sim, env: env}, nil
}

// Step runs one scheduling round; it returns false when every user has
// trained every model.
func (s *Selection) Step() (bool, error) { return s.sim.Step() }

// RunSteps runs up to n rounds (all remaining when n ≤ 0).
func (s *Selection) RunSteps(n int) (int, error) { return s.sim.RunSteps(n) }

// RunBudget runs rounds until the cumulative cost reaches budget.
func (s *Selection) RunBudget(budget float64) (int, error) { return s.sim.RunBudget(budget) }

// Best returns the best model found so far for a user and its accuracy;
// ok is false before the user's first serve.
func (s *Selection) Best(user int) (model int, accuracy float64, ok bool) {
	return s.sim.Tenants[user].Bandit.Best()
}

// AvgLoss returns the mean accuracy loss across users (Appendix A).
func (s *Selection) AvgLoss() float64 { return s.sim.AvgLoss() }

// CumulativeCost returns the total execution cost paid.
func (s *Selection) CumulativeCost() float64 { return s.sim.CumulativeCost() }

// CumulativeRegret returns the §4.1 multi-tenant cost-aware regret.
func (s *Selection) CumulativeRegret() float64 { return s.sim.CumulativeRegret() }

// Trace returns the per-round trace (served user, trained model, reward,
// cost, loss).
func (s *Selection) Trace() []core.TracePoint { return s.sim.Trace() }

// TotalCost returns the cost of training everything for everyone.
func (s *Selection) TotalCost() float64 { return s.env.TotalCost() }
