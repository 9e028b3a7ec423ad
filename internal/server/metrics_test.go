package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/dsl"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/templates"
)

// ParseSamples returns an exposition's samples keyed by name plus label
// block, e.g. `easeml_engine_runs_total{outcome="completed"}`. Exported
// for the external test package.
func ParseSamples(t testing.TB, exposition string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	for _, line := range strings.Split(exposition, "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

// sampleValue returns one exposition sample's value, failing the test
// when it is absent.
func sampleValue(t *testing.T, body, sample string) float64 {
	t.Helper()
	v, ok := ParseSamples(t, body)[sample]
	if !ok {
		t.Fatalf("exposition has no sample %q", sample)
	}
	return v
}

// sampleLineRE is the shape of one Prometheus text-format sample:
// name{labels} value. Values are Go floats (formatFloat) or integers.
var sampleLineRE = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$`)

// GET /metrics must serve a parseable Prometheus exposition with the
// pick-stage and WAL histograms populated (non-zero p99) after real picks
// flow through a durable scheduler — the issue's acceptance scrape.
func TestPrometheusExpositionEndToEnd(t *testing.T) {
	sc, wal := newDurableScheduler(t, t.TempDir())
	defer wal.Close()
	if _, err := sc.Submit("metrics", recoveryTSProgram); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		work, err := sc.PickWork(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range work {
			if l.Trace == "" {
				t.Error("pick minted a lease without a trace ID")
			}
			if err := sc.Complete(l, 0.5, 1); err != nil {
				t.Fatal(err)
			}
		}
	}

	srv := httptest.NewServer(NewAPI(sc).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type %q, want Prometheus text v0.0.4", ct)
	}
	if resp.Header.Get("X-Easeml-Trace") == "" {
		t.Error("response is missing the X-Easeml-Trace header")
	}

	exposition := string(body)
	// Every non-comment line must parse as a sample — the CI smoke step
	// runs the same check via tools/metriclint -exposition.
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLineRE.MatchString(line) {
			t.Errorf("unparseable exposition line: %q", line)
		}
	}

	// The acceptance histograms: populated with non-zero p99.
	for _, name := range []string{
		"easeml_pick_stage_select_seconds_p99",
		"easeml_pick_stage_lock_wait_seconds_p99",
		"easeml_pick_stage_wal_append_seconds_p99",
		"easeml_wal_append_seconds_p99",
	} {
		if v := sampleValue(t, exposition, name); v <= 0 {
			t.Errorf("%s = %g, want > 0", name, v)
		}
	}
	if v := sampleValue(t, exposition, "easeml_wal_append_seconds_count"); v <= 0 {
		t.Errorf("easeml_wal_append_seconds_count = %g, want > 0", v)
	}
	if v := sampleValue(t, exposition, "easeml_wal_seq"); v <= 0 {
		t.Errorf("easeml_wal_seq = %g, want > 0", v)
	}
	if v := sampleValue(t, exposition, "easeml_jobs"); v != 1 {
		t.Errorf("easeml_jobs = %g, want 1", v)
	}

	// A second scrape sees the first one's own HTTP traffic counted.
	resp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if v := sampleValue(t, string(body2), `easeml_http_requests_total{route="/metrics",code="200"}`); v < 1 {
		t.Errorf("easeml_http_requests_total for /metrics = %g, want >= 1", v)
	}
}

type stubFleet struct{}

func (stubFleet) FleetStatus() FleetStatus {
	return FleetStatus{Alive: 2, Dead: 1, Left: 3, RemoteLeases: 4, ExpiredLeases: 5, PreemptedLeases: 6}
}

// getBody GETs url and returns the status code and body.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// The scrape grows the fleet and WAL families when those subsystems are
// attached; the fleet's lease reclaim counters are read from GET
// /admin/fleet.
func TestAdminMetricsExtendedSections(t *testing.T) {
	sc, wal := newDurableScheduler(t, t.TempDir())
	defer wal.Close()
	if _, err := sc.Submit("sections", recoveryTSProgram); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPI(sc).WithFleet(stubFleet{}).Handler())
	defer srv.Close()
	_, scrape := getBody(t, srv.URL+"/metrics")
	if v := sampleValue(t, scrape, `easeml_fleet_workers{state="alive"}`); v != 2 {
		t.Errorf("alive fleet workers = %g, want 2", v)
	}
	if v := sampleValue(t, scrape, `easeml_fleet_workers{state="left"}`); v != 3 {
		t.Errorf("left fleet workers = %g, want 3", v)
	}
	var fs FleetStatus
	if _, body := getBody(t, srv.URL+"/admin/fleet"); json.Unmarshal([]byte(body), &fs) != nil {
		t.Fatalf("GET /admin/fleet: %s", body)
	}
	if fs.ExpiredLeases != 5 || fs.PreemptedLeases != 6 {
		t.Errorf("fleet lease counters = %+v", fs)
	}
	if v := sampleValue(t, scrape, "easeml_wal_seq"); v == 0 {
		t.Error("easeml_wal_seq is 0 for a durable scheduler that logged a submit")
	}
	if v := sampleValue(t, scrape, `easeml_wal_appends_total{type="job_submitted"}`); v == 0 {
		t.Error("easeml_wal_appends_total counted no submit")
	}
	if strings.Contains(scrape, "easeml_tenant_") {
		t.Error("tenant families present without an admission controller")
	}
}

// checkFamiliesGrouped fails the test for every sample that does not
// belong to the family of the most recent # TYPE line (histogram series
// may carry _bucket, _sum and _count): the text format wants each
// family's samples in one group after its own header.
func checkFamiliesGrouped(t *testing.T, exposition string) {
	t.Helper()
	current := ""
	for _, line := range strings.Split(exposition, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			current = f[2]
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b := strings.TrimSuffix(name, suffix); b == current {
				base = b
			}
		}
		if base != current {
			t.Errorf("sample %q sits under # TYPE %s", line, current)
		}
	}
}

// Two tenants' samples must not interleave the per-tenant families: each
// family's samples follow its own # TYPE.
func TestScrapeGroupsTenantFamilies(t *testing.T) {
	ctrl, err := admission.NewController(admission.Config{Tenants: map[string]admission.Quota{
		"alice": {Class: admission.ClassGuaranteed}, "bob": {Class: admission.ClassBestEffort},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScheduler(NewSimTrainer(cluster.NewPool(8, 0.9), 42), ctrl, "")
	for _, tenant := range []string{"alice", "bob"} {
		if _, err := sc.Submit(tenant, recoveryTSProgram); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sc.RunRounds(4); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPI(sc).Handler())
	defer srv.Close()
	_, scrape := getBody(t, srv.URL+"/metrics")
	for _, sample := range []string{
		`easeml_tenant_active_jobs{tenant="alice"}`, `easeml_tenant_active_jobs{tenant="bob"}`,
		`easeml_tenant_cost_used{tenant="alice"}`, `easeml_tenant_cost_used{tenant="bob"}`,
	} {
		sampleValue(t, scrape, sample)
	}
	checkFamiliesGrouped(t, scrape)
}

// stubEngine reports a fixed EngineStatus.
type stubEngine struct{ st EngineStatus }

func (stubEngine) Start() error           { return nil }
func (stubEngine) Stop() error            { return nil }
func (e stubEngine) Status() EngineStatus { return e.st }

// jsonAt decodes a JSON body and walks path (object keys, array indexes)
// to one leaf; a key the reply omits reads as nil.
func jsonAt(t *testing.T, body string, path ...any) any {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	for _, step := range path {
		switch k := step.(type) {
		case string:
			v = v.(map[string]any)[k]
		case int:
			v = v.([]any)[k]
		}
	}
	return v
}

var fieldMappingRuns atomic.Int64

// Every leaf field the removed GET /admin/metrics JSON served, with the
// value it would have served (computed as its handler did) and where an
// operator reads that value now: a GET /metrics sample, or a field of
// GET /admin/quotas or GET /admin/fleet. The service is durable and has
// an engine, a fleet and an admission controller, so every section of the
// old reply was present.
func TestMetricsFieldMapping(t *testing.T) {
	// Two programs no earlier lookup in this process has seen, so their
	// first parse and grid are misses under -count=N too.
	run := fieldMappingRuns.Add(1)
	tsProg := fmt.Sprintf("{input: {[Tensor[4]], [next]}, output: {[Tensor[%d]], []}}", 100+run)
	imgProg := fmt.Sprintf("{input: {[Tensor[8, 8, 3]], []}, output: {[Tensor[%d]], []}}", 100+run)
	var before strings.Builder
	telemetry.Default().WritePrometheus(&before)
	m0 := ParseSamples(t, before.String())

	ctrl, err := admission.NewController(admission.Config{Tenants: map[string]admission.Quota{
		"alice": {Class: admission.ClassGuaranteed, MaxJobs: 2, RatePerSec: 100, Burst: 50, Budget: 1e6},
		"bob":   {Class: admission.ClassBestEffort, MaxJobs: 3, RatePerSec: 200, Burst: 60, Budget: 1e-9},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScheduler(NewSimTrainer(cluster.NewPool(8, 0.9), 42), ctrl, "")
	wal, _, err := sc.Recover(t.TempDir(), storage.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	for _, sub := range []struct{ tenant, program string }{
		{"alice", tsProg}, {"alice", tsProg}, {"bob", imgProg},
	} {
		if _, err := sc.Submit(sub.tenant, sub.program); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sc.Submit("alice", tsProg); err == nil {
		t.Fatal("alice's third job admitted under MaxJobs 2")
	}
	if _, err := sc.RunRounds(4); err != nil {
		t.Fatal(err)
	}
	if err := sc.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.PickWork(2); err != nil { // leases left in flight
		t.Fatal(err)
	}

	eng := EngineStatus{
		Running: true, Workers: 2, Completed: 11, Released: 3, Abandoned: 1, Errors: 2,
		InFlight: 4, Uptime: 1500 * time.Millisecond, Utilization: 0.75,
		PerWorker: []EngineWorkerStatus{
			{Items: 6, Busy: 250 * time.Millisecond}, {Items: 5, Busy: 500 * time.Millisecond},
		},
		VirtualMakespan: 10, VirtualSingleDevice: 25,
	}
	fleet := stubFleet{}.FleetStatus()
	api := NewAPI(sc).WithEngine(stubEngine{eng}).WithFleet(stubFleet{})
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	_, scrape := getBody(t, srv.URL+"/metrics")
	m := ParseSamples(t, scrape)
	_, quotas := getBody(t, srv.URL+"/admin/quotas")
	_, fleetBody := getBody(t, srv.URL+"/admin/fleet")
	if code, _ := getBody(t, srv.URL+"/admin/metrics"); code != http.StatusNotFound {
		t.Fatalf("GET /admin/metrics = %d, want 404", code)
	}

	type row struct {
		field, home string
		want, got   any
	}
	metric := func(sample string) row {
		v, ok := m[sample]
		if !ok {
			t.Errorf("scrape has no %s", sample)
		}
		return row{home: sample, got: v}
	}
	delta := func(sample string) row {
		r := metric(sample)
		r.got = r.got.(float64) - m0[sample]
		return r
	}
	var rows []row
	add := func(field string, want any, r row) {
		r.field, r.want = field, want
		rows = append(rows, r)
	}

	add("jobs", float64(len(sc.Jobs())), metric("easeml_jobs"))
	add("rounds", float64(sc.Rounds()), metric("easeml_rounds_total"))
	add("in_flight", float64(sc.InFlight()), metric("easeml_leases_in_flight"))

	sel := sc.SelectionStats()
	for _, e := range []struct {
		event string
		v     uint64
	}{
		{"picks", sel.Picks}, {"speculative_grants", sel.SpeculativeGrants},
		{"jobs_rescored", sel.JobsRescored}, {"stale_picks", sel.StalePicks},
		{"heap_pops", sel.HeapPops}, {"epoch_bumps", sel.EpochBumps},
		{"shadows_built", sel.ShadowsBuilt}, {"shadows_reused", sel.ShadowsReused},
		{"shadow_rollbacks", sel.ShadowRollbacks},
	} {
		add("selection."+e.event, float64(e.v), metric(`easeml_selection_events_total{event="`+e.event+`"}`))
	}
	bc := sel.BanditCache
	for _, c := range []struct {
		cache, event string
		v            uint64
	}{
		{"select", "hits", bc.Select.Hits}, {"select", "misses", bc.Select.Misses},
		{"select", "invalidations", bc.Select.Invalidations},
		{"posterior", "hits", bc.Posterior.Hits}, {"posterior", "misses", bc.Posterior.Misses},
		{"posterior", "invalidations", bc.Posterior.Invalidations}, {"posterior", "rebuilds", bc.Posterior.Rebuilds},
	} {
		add("selection.bandit_cache."+c.cache+"."+c.event, float64(c.v),
			metric(`easeml_bandit_cache_events_total{cache="`+c.cache+`",event="`+c.event+`"}`))
	}

	r := metric("easeml_engine_running")
	add("engine.running", eng.Running, row{home: r.home + " == 1", got: r.got == 1.0})
	add("engine.workers", float64(eng.Workers), metric("easeml_engine_workers"))
	add("engine.completed", float64(eng.Completed), metric(`easeml_engine_runs_total{outcome="completed"}`))
	add("engine.released", float64(eng.Released), metric(`easeml_engine_runs_total{outcome="released"}`))
	add("engine.abandoned", float64(eng.Abandoned), metric(`easeml_engine_runs_total{outcome="abandoned"}`))
	add("engine.errors", float64(eng.Errors), metric(`easeml_engine_runs_total{outcome="error"}`))
	add("engine.in_flight", float64(eng.InFlight), metric("easeml_engine_in_flight"))
	// The JSON served milliseconds; the scrape serves seconds.
	r = metric("easeml_engine_uptime_seconds")
	add("engine.uptime_ms", float64(eng.Uptime)/float64(time.Millisecond), row{home: r.home + " ×1000", got: r.got.(float64) * 1000})
	add("engine.utilization", eng.Utilization, metric("easeml_engine_utilization"))
	for i, ws := range eng.PerWorker {
		w := strconv.Itoa(i)
		add("engine.per_worker["+w+"].items", float64(ws.Items), metric(`easeml_engine_worker_runs_total{worker="`+w+`"}`))
		r := metric(`easeml_engine_worker_busy_seconds_total{worker="` + w + `"}`)
		add("engine.per_worker["+w+"].busy_ms", float64(ws.Busy)/float64(time.Millisecond), row{home: r.home + " ×1000", got: r.got.(float64) * 1000})
	}
	pool, single := metric(`easeml_engine_virtual_seconds{schedule="pool"}`), metric(`easeml_engine_virtual_seconds{schedule="single_device"}`)
	add("engine.virtual_makespan", eng.VirtualMakespan, pool)
	add("engine.virtual_single_device", eng.VirtualSingleDevice, single)
	add("engine.virtual_speedup", eng.VirtualSingleDevice/eng.VirtualMakespan, row{home: single.home + " / " + pool.home, got: single.got.(float64) / pool.got.(float64)})

	add("admission.default_class", string(ctrl.DefaultClass()), row{home: "/admin/quotas default_class", got: jsonAt(t, quotas, "default_class")})
	costs := sc.TenantCosts()
	exhausted := map[string]bool{}
	for _, job := range sc.Jobs() {
		exhausted[job.Name] = exhausted[job.Name] || sc.BudgetExhausted(job.ID)
	}
	tenants := ctrl.Snapshot()
	if len(tenants) != 2 || !exhausted["bob"] || exhausted["alice"] {
		t.Fatalf("tenants %+v, budget exhausted %v: want alice and bob, only bob's budget spent", tenants, exhausted)
	}
	for i, ts := range tenants {
		quota := func(key string) row {
			return row{home: fmt.Sprintf("/admin/quotas tenants[%d].%s", i, key), got: jsonAt(t, quotas, "tenants", i, key)}
		}
		field := fmt.Sprintf("admission.tenants[%d].", i)
		label := `{tenant="` + ts.Tenant + `"}`
		add(field+"tenant", ts.Tenant, quota("tenant"))
		add(field+"class", string(ts.Class), quota("class"))
		add(field+"declared", ts.Declared, quota("declared"))
		add(field+"max_jobs", float64(ts.MaxJobs), quota("max_jobs"))
		add(field+"active_jobs", float64(ts.ActiveJobs), quota("active_jobs"))
		add(field+"active_jobs", float64(ts.ActiveJobs), metric("easeml_tenant_active_jobs"+label))
		add(field+"rate_per_sec", ts.RatePerSec, quota("rate_per_sec"))
		add(field+"burst", float64(ts.Burst), quota("burst"))
		add(field+"budget", ts.Budget, quota("budget"))
		add(field+"admitted", float64(ts.Admitted), quota("admitted"))
		add(field+"rejected", float64(ts.Rejected), quota("rejected"))
		add(field+"cost_used", costs[ts.Tenant], quota("cost_used"))
		add(field+"cost_used", costs[ts.Tenant], metric("easeml_tenant_cost_used"+label))
		add(field+"budget_exhausted", exhausted[ts.Tenant], quota("budget_exhausted"))
	}

	for _, state := range []struct {
		name string
		n    int
	}{{"alive", fleet.Alive}, {"dead", fleet.Dead}, {"left", fleet.Left}} {
		add("fleet.workers_by_state."+state.name, float64(state.n), metric(`easeml_fleet_workers{state="`+state.name+`"}`))
	}
	add("fleet.remote_leases", float64(fleet.RemoteLeases), metric("easeml_fleet_remote_leases"))
	add("fleet.expired_leases", float64(fleet.ExpiredLeases),
		row{home: "/admin/fleet expired_leases", got: jsonAt(t, fleetBody, "expired_leases")})
	add("fleet.preempted_leases", float64(fleet.PreemptedLeases),
		row{home: "/admin/fleet preempted_leases", got: jsonAt(t, fleetBody, "preempted_leases")})

	// The WAL section was this log's tallies; the scrape's families count
	// every log in the process, so the test reads them as deltas over the
	// scrape taken before this log opened.
	ws := wal.Stats()
	appends := row{home: "Σ easeml_wal_appends_total{type}", got: 0.0}
	for k, v := range m {
		if strings.HasPrefix(k, "easeml_wal_appends_total{") {
			appends.got = appends.got.(float64) + v - m0[k]
		}
	}
	add("wal.appends", float64(ws.Appends), appends)
	add("wal.fsyncs", float64(ws.Fsyncs), delta("easeml_wal_fsyncs_total"))
	add("wal.compactions", float64(ws.Compactions), delta("easeml_wal_compactions_total"))
	add("wal.seq", float64(ws.Seq), metric("easeml_wal_seq"))
	add("wal.segments", float64(ws.Segments), metric("easeml_wal_segments"))
	add("wal.group_commits", float64(ws.GroupCommits), delta("easeml_wal_group_commit_batch_size_count"))
	add("wal.bytes_written", float64(ws.BytesWritten), delta("easeml_wal_bytes_written_total"))

	// The plan-cache section. The submits above parse ts (miss), ts (hit)
	// and img (miss); the scheduler's plan cache serves the second ts
	// submit, so the grid cache sees only the two programs' misses. Each
	// miss inserts, evicting one entry from a full cache.
	for _, c := range []struct {
		cache                  string
		capacity, hits, misses float64
	}{
		{"program", dsl.DefaultPlanCacheCapacity, 1, 2},
		{"candidates", templates.DefaultCandidateCacheCapacity, 0, 2},
	} {
		entries := `easeml_plan_cache_entries{cache="` + c.cache + `"}`
		resident := min(m0[entries]+c.misses, c.capacity)
		for _, e := range []struct {
			field, event string
			want         float64
		}{{"hits", "hit", c.hits}, {"misses", "miss", c.misses}, {"evictions", "eviction", m0[entries] + c.misses - resident}} {
			add("plan_cache."+c.cache+"."+e.field, e.want,
				delta(`easeml_plan_cache_events_total{cache="`+c.cache+`",event="`+e.event+`"}`))
		}
		add("plan_cache."+c.cache+".entries", resident, metric(entries))
	}

	for _, r := range rows {
		if r.got == nil && reflect.ValueOf(r.want).IsZero() {
			continue // omitempty in the old reply and in /admin/quotas alike
		}
		if fmt.Sprint(r.got) != fmt.Sprint(r.want) {
			t.Errorf("%s: /admin/metrics served %v; %s reads %v", r.field, r.want, r.home, r.got)
		}
	}
	if len(rows) < 80 {
		t.Errorf("%d rows: the table lost fields", len(rows))
	}
}
