package main

// harnessVersion names the measurement method. Bump it whenever a workload,
// a size or a metric definition changes: numbers are only comparable within
// one version.
const harnessVersion = "1"

// workloadSpec is one named workload with the one-line reason it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*runCtx) (*outcome, error)
}

var workloads = []workloadSpec{
	{"select_paper", "library only: HYBRID + cost-aware GP-UCB on the paper's datasets; bypasses server, storage, fleet and HTTP", runSelectPaper},
	{"drain_engine", "in-memory service drained by the in-process engine: pick path and engine dispatch only; no WAL, no HTTP", runDrainEngine},
	{"drain_fleet", "same jobs leased over the fleet protocol with a WAL commit per settle: the shipping train path, latency-bound", runDrainFleet},
	{"api_mixed", "open-loop tenant API mix under training load, bulk feed, crash recovery; infer ops never touch the WAL", runAPIMixed},
}

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// e2eSpec is one end-to-end metric: what a user of the system feels, with
// the share of the parent's median by which it may worsen.
type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	def    string
}

// Every workload emits every end-to-end metric (the benchmark contract), so
// each is defined per workload. A run cuts its timed phase into slices (a
// pass, a drain, a second of traffic, a bulk call) and reports the median
// across slices of each timing. The bounds are the contract's maximum: on the
// shared 2-core box this was written on, identical code moves by up to a
// fifth between quiet and noisy periods of the host (see README.md).
//
//	op         select_paper: one Simulation.Step · drain_*: one settled lease ·
//	           api_mixed: one phase-A client op (latency, CPU) or one
//	           bulk-fed example (ops_per_s)
//	ops_per_s  ops ÷ timed wall (api_mixed: phase B acked examples ÷ wall —
//	           phase A is open loop, its rate is the schedule's)
//	op_p50/95  select_paper: per Step · drain_*: wall per lease over chunks
//	           of 256 (engine) / 16 (fleet) settles · api_mixed: phase A,
//	           from the op's due time
var e2eMetrics = []e2eSpec{
	{"setup_s", "s", "lower", 0.25, "median wall of one set-up (boot, listeners, submissions, warm-up), several per run"},
	{"ops_per_s", "1/s", "higher", 0.25, "ops completed ÷ wall, per slice"},
	{"cpu_ms_per_op", "ms", "lower", 0.25, "process user+sys CPU ÷ ops, per slice"},
	{"peak_rss_mb", "MiB", "lower", 0.25, "ru_maxrss of the run's process when the timed phases end (set-up included, output checks and recovery not)"},
	{"op_p50_ms", "ms", "lower", 0.25, "median time per op, per slice"},
	{"op_p95_ms", "ms", "lower", 0.25, "95th percentile of time per op, per slice"},
}

// layerSpec is one per-layer metric, tied to the end-to-end metric and
// workload it should move. Source: a = harness calls the package's public
// functions on shaped state; b = harness spans at boundaries it owns;
// c = difference of two reads of the product's own counters.
type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	src    string
	moves  string
}

const (
	lo = "lower"
	hi = "higher"
)

var layerMetrics = []layerSpec{
	// linalg
	{"linalg.extend_us", "us", lo, "a", "ops_per_s → select_paper"},
	{"linalg.solve_batch_us", "us", lo, "a", "ops_per_s → select_paper"},
	{"linalg.snapshot_ns", "ns", lo, "a", "ops_per_s → drain_engine"},
	// gp
	{"gp.observe_us", "us", lo, "a", "ops_per_s → select_paper"},
	{"gp.posterior_us", "us", lo, "a", "ops_per_s → select_paper"},
	{"gp.hallucinate_us", "us", lo, "a", "ops_per_s → drain_engine"},
	{"gp.shadow_ns", "ns", lo, "a", "ops_per_s → drain_engine"},
	{"gp.cache_hit_ratio", "ratio", hi, "c", "ops_per_s → select_paper, drain_engine"},
	// bandit
	{"bandit.select_us", "us", lo, "a", "ops_per_s → select_paper, drain_engine"},
	{"bandit.observe_us", "us", lo, "a", "ops_per_s → select_paper, drain_engine"},
	{"bandit.cache_hit_ratio", "ratio", hi, "c", "ops_per_s → select_paper, drain_engine"},
	// core
	{"core.step_us_p50", "us", lo, "b", "ops_per_s → select_paper"},
	{"core.step_us_p95", "us", lo, "b", "op_p95_ms → select_paper"},
	{"core.pick_us", "us", lo, "a", "ops_per_s → select_paper"},
	// dsl, templates
	{"dsl.parse_us", "us", lo, "a", "setup_s → drain_*, api_mixed"},
	{"dsl.parse_cached_ns", "ns", lo, "a", "setup_s → drain_*, api_mixed"},
	{"dsl.plan_hit_ratio", "ratio", hi, "c", "client.submit.rtt_ms → api_mixed"},
	{"templates.generate_us", "us", lo, "a", "setup_s → drain_*, api_mixed"},
	{"templates.generate_cached_us", "us", lo, "a", "setup_s → drain_*, api_mixed"},
	// admission
	{"admission.admit_ns", "ns", lo, "a", "api.feed_p95_ms → api_mixed"},
	{"admission.rejected", "count", lo, "c", "failed → api_mixed"},
	// server: scheduler entry points
	{"server.submit_us", "us", lo, "a", "setup_s → drain_*, api_mixed"},
	{"server.pickwork_us", "us", lo, "a", "ops_per_s, cpu_ms_per_op → drain_engine, drain_fleet"},
	{"server.complete_us", "us", lo, "a", "ops_per_s, cpu_ms_per_op → drain_engine, drain_fleet"},
	{"server.specgrant_us", "us", lo, "a", "cpu_ms_per_op → drain_fleet"},
	{"server.posterior_deltas_us", "us", lo, "a", "cpu_ms_per_op → drain_fleet"},
	{"server.feed_us", "us", lo, "a", "ops_per_s → api_mixed"},
	// server: pick stages and selection index
	{"server.stage.select_ms", "ms", lo, "c", "ops_per_s → drain_*"},
	{"server.stage.lock_wait_ms", "ms", lo, "c", "ops_per_s → drain_*"},
	{"server.stage.index_repair_ms", "ms", lo, "c", "ops_per_s → drain_*"},
	{"server.stage.hallucinate_ms", "ms", lo, "c", "ops_per_s → drain_*"},
	{"server.stage.wal_append_ms", "ms", lo, "c", "ops_per_s → drain_fleet"},
	{"server.sel.rescored_per_pick", "ratio", lo, "c", "ops_per_s → drain_*"},
	{"server.sel.shadow_reuse_ratio", "ratio", hi, "c", "ops_per_s → drain_*"},
	// server: serving
	{"server.infer_apply_ns", "ns", lo, "a", "api.infer_p95_ms → api_mixed only"},
	{"server.infer_batch64_us", "us", lo, "a", "api.infer_p95_ms → api_mixed only"},
	// server: http
	{"http.feed.handler_ms", "ms", lo, "b", "op_p50_ms → api_mixed"},
	{"http.infer.handler_ms", "ms", lo, "b", "op_p50_ms → api_mixed"},
	{"http.infer_batch.handler_ms", "ms", lo, "b", "op_p50_ms → api_mixed"},
	{"http.status.handler_ms", "ms", lo, "b", "op_p50_ms → api_mixed"},
	{"http.submit.handler_ms", "ms", lo, "b", "op_p50_ms → api_mixed"},
	{"http.fleet_lease.handler_ms", "ms", lo, "b", "ops_per_s → drain_fleet"},
	{"http.fleet_complete.handler_ms", "ms", lo, "b", "ops_per_s → drain_fleet"},
	{"http.fleet_lease.resp_bytes", "bytes", lo, "b", "ops_per_s, cpu_ms_per_op → drain_fleet"},
	{"http.feed.req_bytes", "bytes", lo, "b", "op_p50_ms → api_mixed"},
	{"http.requests", "count", lo, "c", "0 on select_paper and drain_engine (bypass)"},
	// client
	{"client.feed.rtt_ms", "ms", lo, "b", "op_p50_ms, op_p95_ms → api_mixed"},
	{"client.infer.rtt_ms", "ms", lo, "b", "op_p50_ms → api_mixed"},
	{"client.infer_batch.rtt_ms", "ms", lo, "b", "op_p50_ms → api_mixed"},
	{"client.status.rtt_ms", "ms", lo, "b", "op_p50_ms → api_mixed"},
	{"client.submit.rtt_ms", "ms", lo, "b", "op_p50_ms → api_mixed"},
	{"client.codec_ms", "ms", lo, "b", "op_p50_ms → api_mixed"},
	{"client.feed.p99_ms", "ms", lo, "b", "information only"},
	{"client.infer.p99_ms", "ms", lo, "b", "information only"},
	{"client.queue_ms_p95", "ms", lo, "b", "op_p95_ms → api_mixed"},
	{"client.gen_late_frac", "ratio", lo, "b", "generator honesty → api_mixed"},
	// storage
	{"storage.append_ms_p50", "ms", lo, "a", "api.feed_p95_ms, ops_per_s → api_mixed; ops_per_s → drain_fleet"},
	{"storage.append0_ms_p50", "ms", lo, "a", "ops_per_s → api_mixed"},
	{"storage.group_events_per_s", "1/s", hi, "a", "ops_per_s → api_mixed"},
	{"storage.bytes_per_event", "bytes", lo, "c", "api.recover_s → api_mixed"},
	{"storage.fsyncs_per_event", "ratio", lo, "c", "ops_per_s → api_mixed, drain_fleet"},
	{"storage.batch_mean", "count", hi, "c", "ops_per_s → api_mixed, drain_fleet"},
	{"storage.write_amp", "ratio", lo, "c", "ops_per_s → api_mixed"},
	{"storage.segment_rolls", "count", lo, "c", "op_p95_ms → api_mixed"},
	{"storage.recover_mb_per_s", "MiB/s", hi, "a", "api.recover_s → api_mixed"},
	{"storage.recover_events_per_s", "1/s", hi, "a", "api.recover_s → api_mixed"},
	{"storage.compact_s", "s", lo, "a", "op_p95_ms → api_mixed"},
	{"storage.drain_recover_ms", "ms", lo, "b", "recovery → drain_fleet"},
	{"storage.wal_events", "count", lo, "c", "0 on select_paper and drain_engine (bypass)"},
	// engine
	{"engine.utilization", "ratio", hi, "c", "ops_per_s → drain_engine"},
	{"engine.retries", "count", lo, "c", "ops_per_s → drain_engine"},
	{"engine.runs", "count", hi, "c", "ops_per_s → drain_engine"},
	// fleet
	{"fleet.lease_rtt_ms_p50", "ms", lo, "b", "ops_per_s → drain_fleet"},
	{"fleet.lease_rtt_ms_p95", "ms", lo, "b", "op_p95_ms → drain_fleet"},
	{"fleet.complete_rtt_ms_p50", "ms", lo, "b", "ops_per_s → drain_fleet"},
	{"fleet.heartbeat_rtt_ms_p50", "ms", lo, "b", "information only"},
	{"fleet.execute_ms_p50", "ms", lo, "b", "ops_per_s → drain_fleet"},
	{"fleet.polls_per_grant", "ratio", lo, "c", "ops_per_s, cpu_ms_per_op → drain_fleet"},
	{"fleet.spec_hit_ratio", "ratio", hi, "c", "cpu_ms_per_op → drain_fleet"},
	{"fleet.spec_stale", "count", lo, "c", "cpu_ms_per_op → drain_fleet"},
	{"fleet.posteriors_per_poll", "ratio", lo, "c", "cpu_ms_per_op → drain_fleet"},
	{"fleet.cycle_ms_p50", "ms", lo, "b", "ops_per_s ≈ nproc ÷ cycle → drain_fleet"},
	{"fleet.cycle_residual_frac", "ratio", lo, "b", "time inside the agent → drain_fleet"},
	// telemetry and the cost of observing
	{"telemetry.spans_per_op", "ratio", lo, "c", "cpu_ms_per_op → all service workloads"},
	{"telemetry.scrape_ms", "ms", lo, "b", "cost of one scrape"},
	{"trace.ops_per_s", "1/s", hi, "b", "traced throughput; 1 − this ÷ ops_per_s is trace.overhead_frac"},
	{"trace.harness_spans", "count", lo, "b", "spans the harness recorded"},
	// runtime
	{"proc.gc_pause_ms", "ms", lo, "c", "cpu_ms_per_op, op_p95_ms → all"},
	{"proc.alloc_mb_per_kop", "MiB/kop", lo, "c", "cpu_ms_per_op → all"},
	{"proc.heap_live_mb_end", "MiB", lo, "c", "peak_rss_mb → all"},
	{"proc.goroutines_peak", "count", lo, "c", "peak_rss_mb → all"},
	// user-felt numbers only one workload has (the contract has every
	// workload emit every end-to-end metric, so these live here, unbounded)
	{"quality.loss_auc", "loss", lo, "b", "must not move → select_paper"},
	{"quality.cost_to_target_pct", "%", lo, "b", "must not move → select_paper"},
	{"api.phase_a_ops_per_s", "1/s", hi, "b", "the schedule's rate unless ops fail → api_mixed"},
	{"api.feed_p95_ms", "ms", lo, "b", "user-felt → api_mixed"},
	{"api.infer_p95_ms", "ms", lo, "b", "user-felt; no storage change may move it → api_mixed"},
	{"api.slo_miss_frac", "ratio", lo, "b", "user-felt → api_mixed"},
	{"api.recover_s", "s", lo, "b", "user-felt → api_mixed"},
	{"api.recover_rss_mb", "MiB", lo, "b", "user-felt: ru_maxrss after the recoveries → api_mixed"},
	{"api.image_mb", "MiB", lo, "b", "api.recover_s → api_mixed"},
	{"api.recover_events", "count", lo, "b", "api.recover_s → api_mixed"},
}
