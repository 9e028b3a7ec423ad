// Command easeml-server runs the ease.ml service: a multi-tenant declarative
// machine-learning platform backed by a simulated GPU pool. Users submit
// jobs, feed examples and query the best model over HTTP (see
// internal/server for the endpoint list, cmd/easeml for the CLI client).
//
// Usage:
//
//	easeml-server [-addr :9000] [-gpus 24] [-seed 1] [-alpha 0.9]
//	              [-workers 0] [-data-dir DIR]
//	              [-wal-segment-bytes 4194304]
//	              [-fleet-addr ADDR] [-lease-ttl 10s]
//	              [-quota-config FILE] [-max-inflight 0] [-pprof]
//	              [-log-format text|json] [-log-level info] [-slow-op 100ms]
//	              [-trace-buffer 4096] [-version]
//
// With -workers N > 0 the async execution engine starts at boot: N
// concurrent trainers lease work through the scheduler's Grant/Settle cycle
// and keep the pool busy, with at most 2×N leases in flight.
// The engine is controlled at runtime via POST /admin/start|stop and
// observed via the easeml_engine_* families of GET /metrics. Without
// workers, rounds are driven explicitly via POST /admin/rounds, serialized
// across the whole pool.
//
// With -fleet-addr the server becomes a fleet coordinator: remote
// easeml-worker agents register, lease candidates, heartbeat and report
// results over the /fleet/* protocol, served both on the main address and
// on the dedicated fleet address. A leased candidate whose worker goes
// silent for -lease-ttl is re-queued automatically. GET /admin/fleet
// reports the worker registry (join/leave/dead states, in-flight counts,
// failure tallies).
//
// With -data-dir the service is durable: every mutation (job submitted,
// example fed/refined, model recorded) is fsynced to a segmented
// write-ahead log before being acknowledged, and a restarted server
// recovers all jobs, examples and trained models from the directory's
// snapshot + WAL segments, then resumes training — work that was in
// flight at the crash is re-queued. Concurrent mutations are group
// committed with no timer involved: the log fsyncs as soon as it has work,
// and the appends that arrive during one fsync share the next; a feed
// request is one commit however many examples it carries.
// (-wal-sync-interval, which used to size a commit linger, is deprecated:
// accepted, ignored, and warned about once.) Segments roll at
// -wal-segment-bytes. POST /admin/snapshot compacts the whole log into
// the snapshot at runtime and retires every segment the snapshot covers.
//
// With -quota-config the server enforces tenant admission control: the
// JSON file declares per-tenant service classes (guaranteed / standard /
// best-effort — weighted fair sharing across classes), concurrent-job
// caps, Submit/Feed rate limits and GPU cost budgets:
//
//	{
//	  "default_class": "standard",
//	  "tenants": {
//	    "alice": {"class": "guaranteed", "max_jobs": 4, "rate_per_sec": 10, "budget": 500},
//	    "carol": {"class": "best-effort", "budget": 40}
//	  }
//	}
//
// Over-quota requests answer 429 {"error", "code": "quota_exceeded"};
// budget-exhausted tenants drain gracefully; GET/POST /admin/quotas read
// and update live quota state. With a fleet, -max-inflight caps the total
// outstanding leases — when saturated, guaranteed-class work preempts an
// outstanding best-effort lease (the displaced candidate is re-queued
// exactly once and the preemption is WAL-logged).
//
// With -pprof the Go profiler is mounted at /debug/pprof/ on the admin mux
// (off by default — profiles expose internals, so only enable it where the
// admin surface is trusted): CPU and heap profiles of the live pick path,
// readable with `go tool pprof`. -pprof also arms the runtime's mutex
// profiler (1 in 100 contention events) and block profiler (one sample per
// 1 ms blocked) so lock contention shows under /debug/pprof/mutex.
//
// Logs are structured (log/slog): -log-format selects text or json,
// -log-level the verbosity, and operations slower than -slow-op (picks,
// WAL appends, HTTP requests) are logged with their trace IDs. Every
// metric is exposed on GET /metrics (Prometheus text format).
//
// SIGINT/SIGTERM drain the engine gracefully before exit: running trainings
// finish, queued leases are handed back, and (with -data-dir) the log is
// compacted and closed.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/easeml"
	"repro/internal/buildinfo"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":9000", "listen address")
	version := flag.Bool("version", false, "print the build identity and exit")
	gpus := flag.Int("gpus", 24, "simulated GPU pool size")
	seed := flag.Int64("seed", 1, "training-surface seed")
	alpha := flag.Float64("alpha", 0.9, "pool scaling exponent: g GPUs give one job g^alpha speedup")
	workers := flag.Int("workers", 0, "async engine worker count (0 = serialized rounds via /admin/rounds)")
	dataDir := flag.String("data-dir", "", "durable data directory (WAL + snapshots; empty = in-memory)")
	walSegmentBytes := flag.Int64("wal-segment-bytes", 4<<20, "WAL segment roll threshold in bytes (with -data-dir)")
	flag.Duration("wal-sync-interval", 0, "deprecated and ignored: the WAL commits as soon as it has work, there is no commit window to size")
	fleetAddr := flag.String("fleet-addr", "", "dedicated listen address for the fleet worker protocol (empty = no fleet)")
	leaseTTL := flag.Duration("lease-ttl", 0, "fleet lease TTL before silent workers' leases are re-queued (default 10s)")
	quotaConfig := flag.String("quota-config", "", "JSON tenant quota file enabling admission control (classes, caps, rate limits, budgets)")
	maxInFlight := flag.Int("max-inflight", 0, "cap on total outstanding fleet leases; saturated guaranteed work preempts best-effort (0 = no cap)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the admin mux (off by default; exposes profiles to anyone who can reach the server)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	slowOp := flag.Duration("slow-op", 100*time.Millisecond, "log operations (picks, WAL appends, HTTP requests) slower than this (0 disables the slow-op log)")
	traceBuffer := flag.Int("trace-buffer", 0, "flight-recorder span capacity per ring (GET /admin/traces; 0 = default 4096)")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("easeml-server"))
		return
	}
	telemetry.SetProcessName("easeml-server")

	logger, err := telemetry.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "easeml-server: %v\n", err)
		os.Exit(1)
	}
	slog.SetDefault(logger) // slow-op and library warnings inherit the process logger
	telemetry.SetSlowOpThreshold(*slowOp)
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "wal-sync-interval" {
			logger.Warn("-wal-sync-interval is deprecated and ignored: the WAL commits as soon as it has work", "value", f.Value)
		}
	})

	if *alpha <= 0 || *alpha > 1 {
		logger.Error("invalid flag", "flag", "-alpha", "value", *alpha, "want", "(0, 1]")
		os.Exit(1)
	}

	cfg := easeml.ServiceConfig{
		GPUs:             *gpus,
		Seed:             *seed,
		Addr:             "http://localhost" + *addr,
		Alpha:            *alpha,
		Workers:          *workers,
		DataDir:          *dataDir,
		WALSegmentBytes:  *walSegmentBytes,
		FleetAddr:        *fleetAddr,
		LeaseTTL:         *leaseTTL,
		FleetMaxInFlight: *maxInFlight,
		Pprof:            *pprofFlag,
		Logger:           logger,
		TraceBuffer:      *traceBuffer,
	}
	if *pprofFlag {
		host := *addr
		if strings.HasPrefix(host, ":") {
			host = "localhost" + host
		}
		logger.Info("pprof profiling mounted",
			"path", "/debug/pprof/", "profile", "http://"+host+"/debug/pprof/profile")
	}
	if *quotaConfig != "" {
		quotas, err := easeml.LoadQuotaFile(*quotaConfig)
		if err != nil {
			logger.Error("loading quota config failed", "file", *quotaConfig, "err", err)
			os.Exit(1)
		}
		cfg.Quotas = quotas.Tenants
		cfg.DefaultClass = quotas.DefaultClass
		if cfg.DefaultClass == "" {
			cfg.DefaultClass = "standard" // enable admission even for a tenants-only file
		}
		logger.Info("admission control enabled",
			"tenants", len(cfg.Quotas), "default_class", cfg.DefaultClass)
	}

	svc, err := easeml.OpenService(cfg)
	if err != nil {
		logger.Error("opening service failed", "err", err)
		os.Exit(1)
	}
	if *dataDir != "" {
		r := svc.Recovered
		logger.Info("recovered from data dir",
			"dir", *dataDir, "jobs", r.Jobs, "examples", r.Examples, "models", r.Models,
			"wal_events", r.WALEvents, "expired_leases", r.ExpiredLeases)
	}
	if *fleetAddr != "" {
		// The effective TTL comes back from the coordinator itself, so the
		// log line can never disagree with the default it applies.
		ttl := time.Duration(0)
		if fs, ok := svc.FleetStatus(); ok {
			ttl = time.Duration(fs.LeaseTTLMS * float64(time.Millisecond))
		}
		logger.Info("fleet coordinator listening", "addr", svc.FleetAddr(), "lease_ttl", ttl)
	}

	shutdown := func() {
		if *workers > 0 {
			logger.Info("draining engine")
			if err := svc.StopEngine(); err != nil {
				logger.Warn("engine stop failed", "err", err)
			}
		}
		if err := svc.Close(); err != nil {
			logger.Warn("closing data dir failed", "err", err)
		}
		os.Exit(0)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		shutdown()
	}()

	if *workers > 0 {
		if err := svc.StartEngine(); err != nil {
			logger.Error("starting engine failed", "err", err)
			os.Exit(1)
		}
	}
	logger.Info("ease.ml server listening",
		"addr", *addr, "gpus", *gpus, "seed", *seed, "workers", *workers)
	if err := http.ListenAndServe(*addr, svc.Handler()); err != nil {
		logger.Error("server exited", "err", err)
		os.Exit(1)
	}
}
