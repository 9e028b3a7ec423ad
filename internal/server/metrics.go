package server

import (
	"errors"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/telemetry"
)

// Pick-path stage histograms: the per-stage breakdown of where a pick
// spends its time. lock_wait is Grant's coordinator-lock acquisition plus
// its waits for the lock of each job it chose (once per Grant; no other
// job's lock is taken); index_repair is one re-scoring of a job whose
// bandit moved — its published scalars, gap included, read under that
// job's lock by whoever moved it, off the pick path; select is one full
// pickNextLocked decision; hallucinate is the GP-BUCB shadow work inside it
// (only picks with in-flight arms pay it). The WAL half of the settle path
// is pick_stage_wal_append (the model-record append in Complete) plus the
// storage-level wal_append/wal_fsync families.
var (
	pickStageLockWait = telemetry.Default().Histogram("easeml_pick_stage_lock_wait_seconds",
		"Pick-path lock wait: coordMu acquisition plus the wait for each chosen job's lock, once per Grant.")
	pickStageIndexRepair = telemetry.Default().Histogram("easeml_pick_stage_index_repair_seconds",
		"Selection-index re-scoring: reading a job's scalars (posterior refresh included) under its own lock for publication, once per bandit move.")
	pickStageSelect = telemetry.Default().Histogram("easeml_pick_stage_select_seconds",
		"One pickNextLocked decision end to end: picker argmax, candidate selection, lease creation.")
	pickStageHallucinate = telemetry.Default().Histogram("easeml_pick_stage_hallucinate_seconds",
		"GP-BUCB hallucination-shadow work within a pick (shadow revive/build, SelectArm, Hallucinate).")
	pickStageWALAppend = telemetry.Default().Histogram("easeml_pick_stage_wal_append_seconds",
		"The settle path's WAL append: logging the model record during Complete.")
	leaseTraces = telemetry.Default().Counter("easeml_lease_traces_minted_total",
		"Trace IDs minted for leases at pick time.")
)

// adminRoutes is the closed set of admin paths RouteLabel passes through
// verbatim. Anything else under /admin/ collapses (trace IDs to a {id}
// placeholder, unknown paths to "other"), so the per-route counters stay
// bounded no matter what IDs or junk a client requests.
var adminRoutes = map[string]bool{
	"/admin/rounds": true, "/admin/snapshot": true,
	"/admin/start": true, "/admin/stop": true, "/admin/fleet": true,
	"/admin/quotas": true, "/admin/traces": true, "/admin/decisions": true,
}

// fleetRoutes is the closed set of fleet-protocol paths (see
// fleet.Handler); unknown /fleet/ paths collapse to "other" like any
// other 404.
var fleetRoutes = map[string]bool{
	"/fleet/register": true, "/fleet/lease": true, "/fleet/heartbeat": true,
	"/fleet/complete": true, "/fleet/leave": true, "/fleet/job": true,
}

// RouteLabel normalizes a request path to a bounded metric label: job IDs
// and trace IDs collapse to {id}, unknown paths to "other". Used by the
// HTTP middleware so per-route counters cannot explode on hostile paths.
func RouteLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/jobs", p == "/metrics", p == "/healthz", p == "/readyz":
		return p
	case adminRoutes[p], fleetRoutes[p]:
		return p
	case strings.HasPrefix(p, "/admin/traces/"):
		return "/admin/traces/{id}"
	case strings.HasPrefix(p, "/debug/pprof"):
		return "/debug/pprof"
	case strings.HasPrefix(p, "/jobs/"):
		rest := strings.TrimPrefix(p, "/jobs/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			return "/jobs/{id}/" + rest[i+1:]
		}
		return "/jobs/{id}"
	default:
		return "other"
	}
}

// handlePrometheus serves GET /metrics: the process-global telemetry
// registry (histograms, counters minted at observation sites) followed by
// gauges computed from live scheduler/engine/fleet/admission state at
// scrape time — scrape-time reads rather than registered GaugeFuncs, so
// the exposition always reflects *this* API's scheduler even when tests
// build several.
func (a *API) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.Default().WritePrometheus(w)
	a.writeDynamicMetrics(w)
}

func (a *API) writeDynamicMetrics(w io.Writer) {
	telemetry.WriteMetricHeader(w, "easeml_build_info",
		"Build identity (constant 1; the info rides the labels).", "gauge")
	telemetry.WriteGauge(w, "easeml_build_info",
		`{version="`+telemetry.EscapeLabelValue(buildinfo.Version)+
			`",commit="`+telemetry.EscapeLabelValue(buildinfo.Commit)+
			`",go_version="`+telemetry.EscapeLabelValue(runtime.Version())+`"}`, 1)

	telemetry.WriteMetricHeader(w, "easeml_jobs", "Jobs known to the scheduler.", "gauge")
	telemetry.WriteGauge(w, "easeml_jobs", "", float64(len(a.sched.Jobs())))
	telemetry.WriteMetricHeader(w, "easeml_rounds_total", "Scheduling rounds completed.", "counter")
	telemetry.WriteGauge(w, "easeml_rounds_total", "", float64(a.sched.Rounds()))
	telemetry.WriteMetricHeader(w, "easeml_leases_in_flight", "Outstanding leases.", "gauge")
	telemetry.WriteGauge(w, "easeml_leases_in_flight", "", float64(a.sched.InFlight()))

	sel := a.sched.SelectionStats()
	telemetry.WriteMetricHeader(w, "easeml_selection_events_total",
		"Selection-index traffic by event (picks, re-scores, heap pops, shadow lifecycle).", "counter")
	for _, row := range []struct {
		event string
		v     uint64
	}{
		{"picks", sel.Picks}, {"speculative_grants", sel.SpeculativeGrants},
		{"oracle_picks", sel.OraclePicks}, {"legacy_picks", sel.LegacyPicks},
		{"jobs_rescored", sel.JobsRescored}, {"stale_picks", sel.StalePicks},
		{"heap_pops", sel.HeapPops}, {"epoch_bumps", sel.EpochBumps},
		{"shadows_built", sel.ShadowsBuilt}, {"shadows_reused", sel.ShadowsReused}, {"shadow_rollbacks", sel.ShadowRollbacks},
	} {
		telemetry.WriteGauge(w, "easeml_selection_events_total", `{event="`+row.event+`"}`, float64(row.v))
	}
	telemetry.WriteMetricHeader(w, "easeml_bandit_cache_events_total",
		"GP/bandit cache traffic by cache (select, posterior) and event.", "counter")
	for _, row := range []struct {
		cache, event string
		v            uint64
	}{
		{"select", "hits", sel.BanditCache.Select.Hits},
		{"select", "misses", sel.BanditCache.Select.Misses},
		{"select", "invalidations", sel.BanditCache.Select.Invalidations},
		{"posterior", "hits", sel.BanditCache.Posterior.Hits},
		{"posterior", "misses", sel.BanditCache.Posterior.Misses},
		{"posterior", "invalidations", sel.BanditCache.Posterior.Invalidations},
		{"posterior", "rebuilds", sel.BanditCache.Posterior.Rebuilds},
	} {
		telemetry.WriteGauge(w, "easeml_bandit_cache_events_total",
			`{cache="`+row.cache+`",event="`+row.event+`"}`, float64(row.v))
	}

	if a.engine != nil {
		writeEngineMetrics(w, a.engine.Status())
	}

	if a.fleet != nil {
		fs := a.fleet.FleetStatus()
		telemetry.WriteMetricHeader(w, "easeml_fleet_workers", "Fleet workers by registry state.", "gauge")
		telemetry.WriteGauge(w, "easeml_fleet_workers", `{state="alive"}`, float64(fs.Alive))
		telemetry.WriteGauge(w, "easeml_fleet_workers", `{state="dead"}`, float64(fs.Dead))
		telemetry.WriteGauge(w, "easeml_fleet_workers", `{state="left"}`, float64(fs.Left))
		telemetry.WriteMetricHeader(w, "easeml_fleet_remote_leases", "Leases held by fleet workers.", "gauge")
		telemetry.WriteGauge(w, "easeml_fleet_remote_leases", "", float64(fs.RemoteLeases))
	}

	if a.adm != nil {
		// One loop per family: the text format wants every sample of a
		// family in one group right after its own # TYPE.
		tenants := a.adm.Snapshot()
		telemetry.WriteMetricHeader(w, "easeml_tenant_active_jobs", "Unfinished jobs per tenant.", "gauge")
		for _, ts := range tenants {
			telemetry.WriteGauge(w, "easeml_tenant_active_jobs", tenantLabel(ts.Tenant), float64(ts.ActiveJobs))
		}
		costs := a.sched.TenantCosts()
		telemetry.WriteMetricHeader(w, "easeml_tenant_cost_used", "GPU cost paid per tenant (budget currency).", "gauge")
		for _, ts := range tenants {
			telemetry.WriteGauge(w, "easeml_tenant_cost_used", tenantLabel(ts.Tenant), costs[ts.Tenant])
		}
	}

	if a.sched.log != nil {
		telemetry.WriteMetricHeader(w, "easeml_wal_seq", "WAL sequence horizon (last assigned event seq).", "gauge")
		telemetry.WriteGauge(w, "easeml_wal_seq", "", float64(a.sched.log.Stats().Seq))
	}
}

func tenantLabel(tenant string) string {
	return `{tenant="` + telemetry.EscapeLabelValue(tenant) + `"}`
}

// writeEngineMetrics writes the in-process engine's families. The virtual
// speedup of §5.3.2 is the ratio of the two easeml_engine_virtual_seconds
// samples.
func writeEngineMetrics(w io.Writer, st EngineStatus) {
	telemetry.WriteMetricHeader(w, "easeml_engine_runs_total",
		"In-process engine lease settlements by outcome.", "counter")
	telemetry.WriteGauge(w, "easeml_engine_runs_total", `{outcome="completed"}`, float64(st.Completed))
	telemetry.WriteGauge(w, "easeml_engine_runs_total", `{outcome="released"}`, float64(st.Released))
	telemetry.WriteGauge(w, "easeml_engine_runs_total", `{outcome="abandoned"}`, float64(st.Abandoned))
	telemetry.WriteGauge(w, "easeml_engine_runs_total", `{outcome="error"}`, float64(st.Errors))
	telemetry.WriteMetricHeader(w, "easeml_engine_utilization", "Engine worker utilization (0-1).", "gauge")
	telemetry.WriteGauge(w, "easeml_engine_utilization", "", st.Utilization)
	running := 0.0
	if st.Running {
		running = 1
	}
	for _, g := range []struct {
		name, help string
		v          float64
	}{
		{"easeml_engine_running", "1 while the engine is started, 0 when stopped.", running},
		{"easeml_engine_workers", "Engine worker goroutines (configured pool size).", float64(st.Workers)},
		{"easeml_engine_queue_depth", "Leases sitting in the engine's bounded queue.", float64(st.QueueDepth)},
		{"easeml_engine_in_flight", "Engine leases queued or training.", float64(st.InFlight)},
		{"easeml_engine_uptime_seconds", "Wall time the engine has run, summed over its runs.", st.Uptime.Seconds()},
	} {
		telemetry.WriteMetricHeader(w, g.name, g.help, "gauge")
		telemetry.WriteGauge(w, g.name, "", g.v)
	}
	telemetry.WriteMetricHeader(w, "easeml_engine_worker_runs_total", "Training runs completed per engine worker.", "counter")
	for i, ws := range st.PerWorker {
		telemetry.WriteGauge(w, "easeml_engine_worker_runs_total", workerLabel(i), float64(ws.Items))
	}
	telemetry.WriteMetricHeader(w, "easeml_engine_worker_busy_seconds_total", "Wall time spent training per engine worker.", "counter")
	for i, ws := range st.PerWorker {
		telemetry.WriteGauge(w, "easeml_engine_worker_busy_seconds_total", workerLabel(i), ws.Busy.Seconds())
	}
	telemetry.WriteMetricHeader(w, "easeml_engine_virtual_seconds",
		"Virtual device time of everything trained: the pool's makespan versus the serialized single-device schedule (§5.3.2).", "gauge")
	telemetry.WriteGauge(w, "easeml_engine_virtual_seconds", `{schedule="pool"}`, st.VirtualMakespan)
	telemetry.WriteGauge(w, "easeml_engine_virtual_seconds", `{schedule="single_device"}`, st.VirtualSingleDevice)
}

func workerLabel(i int) string { return `{worker="` + strconv.Itoa(i) + `"}` }
