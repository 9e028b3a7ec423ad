package main

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/templates"
)

func TestPoissonScheduleIsSeededAndAtRate(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 500, 4*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 500, 4*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedules: %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d goes back in time", i)
		}
	}
	// 2000 expected arrivals, σ ≈ 45.
	if len(a) < 1750 || len(a) > 2250 {
		t.Errorf("%d arrivals for rate 500/s over 4 s", len(a))
	}
	if last := a[len(a)-1]; last >= 4*time.Second {
		t.Errorf("arrival at %v is past the phase", last)
	}
}

// A stalled sink must be charged to every operation it delayed: with one
// generator and a first op that blocks, the later ops go out late, and their
// latency (timed from due, not from send) contains that wait.
func TestOpenLoopTimesFromDueUnderStalledSink(t *testing.T) {
	// The stall is long and the "not late" tolerance is half of it, so a
	// hiccup of the shared host does not fail the test.
	const stall = 300 * time.Millisecond
	due := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond}
	out := runOpenLoop(due, 1, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
			return errors.New("boom")
		}
		return nil
	})
	if out[0].Err == nil || out[1].Err != nil {
		t.Errorf("errors not kept per op: %v, %v", out[0].Err, out[1].Err)
	}
	for i := 1; i < 3; i++ {
		wantWait := stall - due[i]
		if out[i].queueWait() < wantWait-time.Millisecond {
			t.Errorf("op %d: queue wait %v, the stall alone is %v", i, out[i].queueWait(), wantWait)
		}
		if out[i].latency() < out[i].queueWait() {
			t.Errorf("op %d: latency %v does not include its wait %v", i, out[i].latency(), out[i].queueWait())
		}
	}
	// Two generators absorb the stall: op 1 does not wait for op 0.
	out = runOpenLoop(due, 2, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if out[1].queueWait() > stall/2 {
		t.Errorf("with a free generator op 1 still waited %v", out[1].queueWait())
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op.x", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client.x", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "client.x", Start: 40, End: 80},  // overlaps span 2: union is 10..80
		{ID: 4, Parent: 1, Name: "client.x", Start: 90, End: 150}, // clipped to the parent's end
		{ID: 5, Parent: 2, Name: "http.x", Start: 20, End: 30},
		{ID: 6, Name: "http.y", Start: 5}, // never closed
	}
	self := selfTimes(spans)
	for i, want := range []int64{20, 40, 40, 60, 10, 0} {
		if self[i] != want {
			t.Errorf("span %d: self time %d, want %d", spans[i].ID, self[i], want)
		}
	}
	rows := layerTable(spans)
	if rows[0].Layer != "client" || rows[0].Spans != 3 || !near(rows[0].SelfMS, 140e-6) {
		t.Errorf("layer table leads with %+v", rows[0])
	}
	if got := durationsMS(spans, "client.x"); len(got) != 3 {
		t.Errorf("durationsMS: %v", got)
	}
	var none *tracer
	none.end(none.begin("x", 0, 0)) // a nil tracer records nothing and does not panic
	if none.snapshot() != nil {
		t.Error("nil tracer has spans")
	}
}

func TestRouteName(t *testing.T) {
	for _, tc := range []struct{ method, path, want string }{
		{"POST", "/jobs", "submit"}, {"GET", "/jobs", "jobs"},
		{"POST", "/jobs/job-0001/feed", "feed"}, {"POST", "/jobs/job-0001/infer", "infer"},
		{"POST", "/jobs/job-0001/infer/batch", "infer_batch"}, {"GET", "/jobs/job-0001/status", "status"},
		{"POST", "/fleet/lease", "fleet_lease"}, {"POST", "/fleet/complete", "fleet_complete"},
		{"GET", "/fleet/job", "fleet_job"}, {"GET", "/metrics", "metrics"}, {"GET", "/nope", "other"},
	} {
		if got := routeName(tc.method, tc.path); got != tc.want {
			t.Errorf("routeName(%s %s) = %q, want %q", tc.method, tc.path, got, tc.want)
		}
	}
}

// The transport and the handler middleware together: the handler span is a
// child of the round-trip span, which is a child of the op span; both sides
// count bytes; the fleet bookkeeping joins lease, execution and completion.
func TestTransportHandlerAndExecutorWrappers(t *testing.T) {
	tr := newTracer()
	served, wire := &boundaryStats{}, &boundaryStats{}
	cycles := newCycleTable()
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs/j1/feed", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		io.WriteString(w, strings.Repeat("x", len(body)*2))
	})
	mux.HandleFunc("/fleet/lease", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"leases":[{"lease_id":7,"job_id":"j1","candidate":"ResNet"}]}`)
	})
	mux.HandleFunc("/fleet/complete", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body) // the wrapper must hand the body on intact
		if !strings.Contains(string(body), `"lease_id":7`) {
			http.Error(w, "body lost", http.StatusBadRequest)
			return
		}
		io.WriteString(w, `{"settled":"completed"}`)
	})
	srv := httptest.NewServer(traceHandler(tr, served, mux))
	defer srv.Close()
	hc := &http.Client{Transport: &tracingTransport{next: http.DefaultTransport, tr: tr, stats: wire, cycles: cycles}}

	op := tr.begin("op.feed", 0, 42)
	req, _ := http.NewRequestWithContext(withParent(context.Background(), op, 42), "POST",
		srv.URL+"/jobs/j1/feed", strings.NewReader("12345"))
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(op)
	if string(body) != "xxxxxxxxxx" {
		t.Fatalf("response body not passed through: %q", body)
	}
	spans := tr.snapshot()
	if len(spans) != 3 || spans[1].Name != "client.feed" || spans[2].Name != "http.feed" {
		t.Fatalf("spans: %+v", spans)
	}
	if spans[1].Parent != spans[0].ID || spans[2].Parent != spans[1].ID || spans[1].Op != 42 {
		t.Errorf("parent chain op → client → http broken: %+v", spans)
	}
	if spans[2].Start < spans[1].Start || spans[2].End > spans[1].End {
		t.Errorf("handler span is not inside the round trip: %+v", spans[1:])
	}
	if got := served.get("feed"); got.Count != 1 || got.ReqBytes != 5 || got.RespBytes != 10 {
		t.Errorf("handler-side counts: %+v", got)
	}
	if got := wire.get("feed"); got.Count != 1 || got.ReqBytes != 5 || got.RespBytes != 10 {
		t.Errorf("transport-side counts: %+v", got)
	}

	// Fleet cycle: lease → execute → complete.
	post := func(path, body string) {
		t.Helper()
		resp, err := hc.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", path, resp.StatusCode)
		}
	}
	post("/fleet/lease", `{"worker_id":"w","max":1}`)
	x := &tracingExecutor{next: fakeExecutor{}, tr: tr, cycles: cycles}
	if err := x.RegisterJob("j1", nil); err != nil {
		t.Fatal(err)
	}
	if acc, cost, err := x.Execute(context.Background(), "j1", templates.Candidate{Model: "ResNet"}); acc != 0.5 || cost != 2 || err != nil {
		t.Fatalf("executor result not passed through: %v %v %v", acc, cost, err)
	}
	post("/fleet/complete", `{"worker_id":"w","lease_id":7,"accuracy":0.5,"cost":2}`)
	lc := cycles.byID[7]
	if lc == nil || lc.Job != "j1" || lc.Cand != "ResNet" {
		t.Fatalf("lease not recorded: %+v", lc)
	}
	if !(lc.LeaseSent.Before(lc.LeaseDone) && !lc.ExecStart.Before(lc.LeaseDone) &&
		!lc.ExecEnd.Before(lc.ExecStart) && !lc.CompleteSent.Before(lc.ExecEnd) && lc.CompleteAcked.After(lc.CompleteSent)) {
		t.Errorf("cycle legs out of order: %+v", lc)
	}
	if n := len(durationsMS(tr.snapshot(), "fleet.execute")); n != 1 {
		t.Errorf("%d fleet.execute spans", n)
	}
}

type fakeExecutor struct{}

func (fakeExecutor) Execute(context.Context, string, templates.Candidate) (float64, float64, error) {
	time.Sleep(time.Millisecond)
	return 0.5, 2, nil
}

func TestPromDelta(t *testing.T) {
	const before = `# HELP easeml_wal_appends_total WAL events appended, by event type.
# TYPE easeml_wal_appends_total counter
easeml_wal_appends_total{type="example_fed"} 10
easeml_wal_appends_total{type="model_recorded"} 4
easeml_wal_bytes_written_total 1000
easeml_pick_stage_select_seconds_sum 0.5
easeml_http_requests_total{route="/jobs/{id}/feed",code="200"} 3
`
	const after = `easeml_wal_appends_total{type="example_fed"} 25
easeml_wal_appends_total{type="model_recorded"} 4
easeml_wal_appends_total{type="job_submitted"} 2
easeml_wal_bytes_written_total 4000
easeml_pick_stage_select_seconds_sum 0.75
easeml_http_requests_total{route="/jobs/{id}/feed",code="200"} 9
easeml_http_requests_total{route="/jobs/{id}/feed",code="429"} 1
easeml_tenant_cost_used{tenant="a b"} 1.5e+02
garbage line without a number x
`
	d := parseProm(strings.NewReader(after)).delta(parseProm(strings.NewReader(before)))
	if got := d.sumName("easeml_wal_appends_total"); got != 17 {
		t.Errorf("appends delta %v, want 15+0+2", got)
	}
	if got := d.sumName("easeml_wal_appends_total", `type="example_fed"`); got != 15 {
		t.Errorf("example_fed delta %v", got)
	}
	if got := d.get("easeml_wal_bytes_written_total"); got != 3000 {
		t.Errorf("bytes delta %v", got)
	}
	if got := d.get("easeml_pick_stage_select_seconds_sum"); got != 0.25 {
		t.Errorf("histogram sum delta %v", got)
	}
	if got := d.sumName("easeml_http_requests_total", `code="200"`); got != 6 {
		t.Errorf("requests delta %v", got)
	}
	if got := d.get(`easeml_tenant_cost_used{tenant="a b"}`); got != 150 {
		t.Errorf("label value with a space: %v", got)
	}
	// A name must not match a longer name that merely starts with it.
	if got := d.sumName("easeml_wal_appends"); got != 0 {
		t.Errorf("prefix leak: %v", got)
	}
	o := newOutcome()
	stageMetrics(o, d, 10)
	if o.layer["storage.bytes_per_event"] != 3000.0/17 || o.layer["server.stage.select_ms"] != 250 {
		t.Errorf("stageMetrics: %v", o.layer)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := e2eSpec{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := e2eSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center * 0.995, center * 1.005}
	}
	for _, tc := range []struct {
		name string
		spec e2eSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady(10), steady(10), verdictOK},
		{"within the bound", lower, steady(10), steady(10.8), verdictOK},
		{"slower past the bound", lower, steady(10), steady(11.5), verdictWorse},
		{"faster is never worse", lower, steady(10), steady(5), verdictOK},
		{"throughput drop", higher, steady(1000), steady(850), verdictWorse},
		{"throughput gain", higher, steady(1000), steady(1500), verdictOK},
		{"base too noisy", lower, []float64{6, 8, 10, 12, 14}, steady(20), verdictUnresolved},
		{"change too noisy", higher, steady(1000), []float64{600, 800, 1000, 1200, 1400}, verdictUnresolved},
	} {
		if got := judge(tc.spec, tc.a, tc.b); got.Verdict != tc.want {
			t.Errorf("%s: verdict %q, want %q (ratio %v)", tc.name, got.Verdict, tc.want, got.Ratio)
		}
	}

	// Pairs rule: a gain needs ≥ 9/10 pair wins and a median gap wider than
	// the base's own inter-quartile distance.
	mk := func(as, bs []float64) (*resultFile, *resultFile) {
		f := func(xs []float64) *resultFile {
			return &resultFile{Workloads: map[string]*workloadSamples{
				"drain_engine": {E2E: map[string][]float64{"ops_per_s": xs}}}}
		}
		return f(as), f(bs)
	}
	base := []float64{1000, 1004, 998, 1002, 1001, 999, 1003, 997, 1000, 1001}
	faster := make([]float64, len(base))
	mixed := make([]float64, len(base))
	for i, v := range base {
		faster[i] = v * 1.05
		mixed[i] = v * 1.05
		if i%3 == 0 {
			mixed[i] = v * 0.99 // loses 4 of 10 pairs
		}
	}
	for _, tc := range []struct {
		name string
		b    []float64
		want string
	}{{"wins every pair", faster, verdictGain}, {"wins 6 of 10", mixed, verdictOK}, {"no change", base, verdictOK}} {
		a, b := mk(base, tc.b)
		rows := []compareRow{judge(higher, base, tc.b)}
		rows[0].Workload = "drain_engine"
		markGains(rows, a, b)
		if rows[0].Verdict != tc.want {
			t.Errorf("pairs, %s: verdict %q, want %q", tc.name, rows[0].Verdict, tc.want)
		}
	}
}
