package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/storage"
)

const imgProgram = "{input: {[Tensor[8, 8, 3]], []}, output: {[Tensor[2]], []}}"
const tsProgram = "{input: {[Tensor[4]], [next]}, output: {[Tensor[2]], []}}"

func newScheduler(t testing.TB) *server.Scheduler {
	t.Helper()
	pool := cluster.NewPool(8, 0.9)
	return server.NewScheduler(server.NewSimTrainer(pool, 42), nil, "http://test:9000")
}

func TestSubmitGeneratesEverything(t *testing.T) {
	sc := newScheduler(t)
	job, err := sc.Submit("dogs-vs-cats", imgProgram)
	if err != nil {
		t.Fatal(err)
	}
	if job.Template != "image-classification" {
		t.Errorf("template %q", job.Template)
	}
	if len(job.Candidates) != 35 { // 7 models × (1 + 4 normalizations)
		t.Errorf("%d candidates, want 35", len(job.Candidates))
	}
	if !strings.Contains(job.Julia, "type Input") {
		t.Error("missing Julia codegen")
	}
	if !strings.Contains(job.Python, job.ID) {
		t.Error("python stub does not embed task id")
	}
}

func TestSubmitRejectsBadProgram(t *testing.T) {
	sc := newScheduler(t)
	if _, err := sc.Submit("bad", "{not a program}"); err == nil {
		t.Fatal("invalid program accepted")
	}
}

func TestFeedRefineLifecycle(t *testing.T) {
	sc := newScheduler(t)
	job, err := sc.Submit("ts", tsProgram)
	if err != nil {
		t.Fatal(err)
	}
	id, err := sc.Feed(job.ID, []float64{1, 2, 3, 4}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Schema enforcement.
	if _, err := sc.Feed(job.ID, []float64{1}, []float64{0, 1}); err == nil {
		t.Error("short input accepted")
	}
	if _, err := sc.Feed(job.ID, []float64{1, 2, 3, 4}, []float64{0}); err == nil {
		t.Error("short output accepted")
	}
	if err := sc.Refine(job.ID, id, false); err != nil {
		t.Fatal(err)
	}
	st, err := sc.Status(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Examples != 1 || st.Enabled != 0 {
		t.Errorf("status %+v", st)
	}
	if err := sc.Refine("nope", id, false); err == nil {
		t.Error("unknown job accepted")
	}
}

func TestSchedulingRoundsProduceModels(t *testing.T) {
	sc := newScheduler(t)
	jobA, err := sc.Submit("a", imgProgram)
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := sc.Submit("b", tsProgram)
	if err != nil {
		t.Fatal(err)
	}
	ran, err := sc.RunRounds(10)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 10 {
		t.Fatalf("ran %d rounds, want 10", ran)
	}
	stA, _ := sc.Status(jobA.ID)
	stB, _ := sc.Status(jobB.ID)
	if stA.Trained+stB.Trained != 10 {
		t.Errorf("trained %d+%d models, want 10", stA.Trained, stB.Trained)
	}
	// Multi-tenancy: both jobs must have been served (hybrid init sweep).
	if stA.Trained == 0 || stB.Trained == 0 {
		t.Errorf("a tenant starved: %d vs %d", stA.Trained, stB.Trained)
	}
	if stA.Best == nil || stA.Best.Accuracy <= 0 {
		t.Errorf("no best model: %+v", stA.Best)
	}
	// Best must be the max over trained models.
	for _, m := range stA.Models {
		if m.Accuracy > stA.Best.Accuracy {
			t.Errorf("best %g below trained model %g", stA.Best.Accuracy, m.Accuracy)
		}
	}
}

func TestRunRoundsExhausts(t *testing.T) {
	sc := newScheduler(t)
	job, err := sc.Submit("ts", tsProgram) // 4 candidates only
	if err != nil {
		t.Fatal(err)
	}
	ran, err := sc.RunRounds(100)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 4 {
		t.Errorf("ran %d rounds, want 4 (candidate count)", ran)
	}
	st, _ := sc.Status(job.ID)
	if st.Trained != 4 {
		t.Errorf("trained %d", st.Trained)
	}
}

func TestInfer(t *testing.T) {
	sc := newScheduler(t)
	job, err := sc.Submit("ts", tsProgram)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.Infer(job.ID, []float64{1, 2, 3, 4}); err == nil {
		t.Error("infer before any training should fail")
	}
	if _, err := sc.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	out, model, err := sc.Infer(job.ID, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || model == "" {
		t.Errorf("infer = %v via %q", out, model)
	}
	// Deterministic for the same input and model.
	out2, _, err := sc.Infer(job.ID, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != out2[0] || out[1] != out2[1] {
		t.Error("infer is not deterministic")
	}
	if _, _, err := sc.Infer(job.ID, []float64{1}); err == nil {
		t.Error("wrong input arity accepted")
	}
}

func TestTrainerDeterministicAcrossSchedulers(t *testing.T) {
	run := func() float64 {
		sc := server.NewScheduler(server.NewSimTrainer(cluster.NewPool(8, 0.9), 42), nil, "")
		job, err := sc.Submit("a", imgProgram)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.RunRounds(5); err != nil {
			t.Fatal(err)
		}
		st, _ := sc.Status(job.ID)
		return st.Best.Accuracy
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different best accuracies %g vs %g", a, b)
	}
}

// Full integration over HTTP: submit → feed → rounds → status → infer,
// exercised through the typed client.
func TestHTTPEndToEnd(t *testing.T) {
	sc := newScheduler(t)
	srv := httptest.NewServer(server.NewAPI(sc).Handler())
	defer srv.Close()
	cl := client.New(srv.URL)
	ctx := context.Background()

	sub, err := cl.Submit(ctx, "dogs", imgProgram)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Template != "image-classification" || len(sub.Candidates) != 35 {
		t.Fatalf("submit response %+v", sub)
	}
	jobs, err := cl.Jobs(ctx)
	if err != nil || len(jobs) != 1 || jobs[0] != sub.ID {
		t.Fatalf("jobs = %v, err %v", jobs, err)
	}

	in := make([]float64, 8*8*3)
	ids, err := cl.Feed(ctx, sub.ID, [][]float64{in}, [][]float64{{1, 0}})
	if err != nil || len(ids) != 1 {
		t.Fatalf("feed: ids=%v err=%v", ids, err)
	}
	if err := cl.Refine(ctx, sub.ID, ids[0], false); err != nil {
		t.Fatal(err)
	}

	rr, err := cl.RunRounds(ctx, 3)
	if err != nil || rr.Ran != 3 {
		t.Fatalf("rounds: %+v err=%v", rr, err)
	}
	st, err := cl.Status(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trained != 3 || st.Best == nil || st.Enabled != 0 || st.Examples != 1 {
		t.Fatalf("status %+v", st)
	}
	inf, err := cl.Infer(ctx, sub.ID, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(inf.Output) != 2 || inf.Model != st.Best.Name {
		t.Errorf("infer %+v", inf)
	}
}

func TestHTTPErrors(t *testing.T) {
	sc := newScheduler(t)
	srv := httptest.NewServer(server.NewAPI(sc).Handler())
	defer srv.Close()
	cl := client.New(srv.URL)
	ctx := context.Background()

	if _, err := cl.Submit(ctx, "bad", "nope"); err == nil {
		t.Error("bad program accepted over HTTP")
	}
	if _, err := cl.Status(ctx, "missing"); err == nil {
		t.Error("missing job status should error")
	}
	if _, err := cl.Feed(ctx, "missing", [][]float64{{1}}, [][]float64{{1}}); err == nil {
		t.Error("feed to missing job should error")
	}
	if _, err := cl.RunRounds(ctx, -1); err == nil {
		t.Error("negative round count accepted")
	}
	if _, err := cl.Feed(ctx, "missing", [][]float64{{1}, {2}}, [][]float64{{1}}); err == nil {
		t.Error("mismatched feed arity accepted")
	}
}

func TestSimTrainerCostsPositiveAndStable(t *testing.T) {
	st := server.NewSimTrainer(cluster.NewPool(4, 0.9), 7)
	sc := server.NewScheduler(st, nil, "")
	job, err := sc.Submit("a", imgProgram)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range job.Candidates {
		c1, err1 := st.EstimateCost(job.ID, c)
		c2, err2 := st.EstimateCost(job.ID, c)
		if err1 != nil || err2 != nil {
			t.Fatalf("candidate %q cost errors %v/%v", c.Name(), err1, err2)
		}
		if c1 <= 0 || c1 != c2 {
			t.Fatalf("candidate %q cost %g/%g", c.Name(), c1, c2)
		}
	}
	// Unknown jobs and candidates surface as errors, not panics: engine
	// workers must never be able to crash the server.
	if _, _, err := st.Train("missing", job.Candidates[0]); err == nil {
		t.Error("Train on unregistered job should error")
	}
	if _, err := st.EstimateCost("missing", job.Candidates[0]); err == nil {
		t.Error("EstimateCost on unregistered job should error")
	}
	// Training advances the shared pool's clock.
	before := st.Pool.Now()
	if _, err := sc.RunRounds(1); err != nil {
		t.Fatal(err)
	}
	if st.Pool.Now() <= before {
		t.Error("training did not consume GPU time")
	}
}

// POST /admin/snapshot is the one checkpoint route: it compacts the WAL
// (409 without a data dir); GET and every other method answer 405.
func TestSnapshotEndpoint(t *testing.T) {
	sc := newScheduler(t)
	srv := httptest.NewServer(server.NewAPI(sc).Handler())
	defer srv.Close()

	postResp, err := http.Post(srv.URL+"/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	postResp.Body.Close()
	if postResp.StatusCode != http.StatusConflict {
		t.Errorf("POST snapshot without a data dir returned %d, want 409", postResp.StatusCode)
	}
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		req, err := http.NewRequest(method, srv.URL+"/admin/snapshot", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || body.Error != "use POST" {
			t.Errorf("%s snapshot returned %d %q, want 405 \"use POST\"", method, resp.StatusCode, body.Error)
		}
	}
}

// A recovered run that names no candidate of its job is refused, not
// silently dropped.
func TestRecoverRejectsUnknownCandidate(t *testing.T) {
	store := storage.NewStore()
	ts, err := store.CreateTask("job-0001")
	if err != nil {
		t.Fatal(err)
	}
	ts.RecordModel(storage.ModelRecord{Name: "NoSuchModel", Accuracy: 0.5, Round: 1})
	rec := &storage.RecoveredState{
		Jobs:  []storage.JobMeta{{ID: "job-0001", Name: "a", Program: tsProgram}},
		Store: store,
	}
	err = newScheduler(t).Recover(rec, nil)
	if err == nil || !strings.Contains(err.Error(), `recovered run "NoSuchModel"`) {
		t.Errorf("Recover with an unknown candidate's run: %v", err)
	}
}

// fakeEngine is a minimal EngineControl for exercising the admin endpoints
// without a real engine.
type fakeEngine struct{ running bool }

func (f *fakeEngine) Start() error {
	if f.running {
		return errors.New("engine: already running")
	}
	f.running = true
	return nil
}

func (f *fakeEngine) Stop() error {
	if !f.running {
		return errors.New("engine: not running")
	}
	f.running = false
	return nil
}

func (f *fakeEngine) Status() server.EngineStatus {
	return server.EngineStatus{Running: f.running, Workers: 3}
}

// scrape GETs base/metrics and returns its samples keyed by name plus
// label block, e.g. `easeml_engine_runs_total{outcome="completed"}`.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d, %v", resp.StatusCode, err)
	}
	return server.ParseSamples(t, string(body))
}

func TestAdminMetricsEndpoint(t *testing.T) {
	sc := newScheduler(t)
	if _, err := sc.Submit("a", tsProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.RunRounds(2); err != nil {
		t.Fatal(err)
	}

	// Without an engine the scrape still reports the scheduler counters.
	srv := httptest.NewServer(server.NewAPI(sc).Handler())
	defer srv.Close()
	m := scrape(t, srv.URL)
	if m["easeml_jobs"] != 1 || m["easeml_rounds_total"] != 2 {
		t.Errorf("scrape without engine: jobs %g, rounds %g", m["easeml_jobs"], m["easeml_rounds_total"])
	}
	if _, ok := m["easeml_engine_running"]; ok {
		t.Error("scrape without engine carries engine families")
	}
	// Wrong method is rejected, and the JSON view is gone.
	for _, c := range []struct {
		method, path string
		want         int
	}{
		{http.MethodPost, "/metrics", http.StatusMethodNotAllowed},
		{http.MethodGet, "/admin/metrics", http.StatusNotFound},
	} {
		req, _ := http.NewRequest(c.method, srv.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s returned %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}

	// With an engine the scrape grows the engine families.
	srv2 := httptest.NewServer(server.NewAPI(sc).WithEngine(&fakeEngine{running: true}).Handler())
	defer srv2.Close()
	m2 := scrape(t, srv2.URL)
	if m2["easeml_engine_running"] != 1 || m2["easeml_engine_workers"] != 3 {
		t.Errorf("scrape with engine: running %g, workers %g", m2["easeml_engine_running"], m2["easeml_engine_workers"])
	}
}

func TestAdminStartStopEndpoints(t *testing.T) {
	sc := newScheduler(t)
	post := func(srvURL, path string) int {
		t.Helper()
		resp, err := http.Post(srvURL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Without an engine, start/stop answer 409 (nothing to control).
	bare := httptest.NewServer(server.NewAPI(sc).Handler())
	defer bare.Close()
	if got := post(bare.URL, "/admin/start"); got != http.StatusConflict {
		t.Errorf("start without engine: %d, want 409", got)
	}
	if got := post(bare.URL, "/admin/stop"); got != http.StatusConflict {
		t.Errorf("stop without engine: %d, want 409", got)
	}
	getResp, err := http.Get(bare.URL + "/admin/start")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET start: %d, want 405", getResp.StatusCode)
	}

	// With an engine: start once, double-start conflicts, stop mirrors it.
	eng := &fakeEngine{}
	srv := httptest.NewServer(server.NewAPI(sc).WithEngine(eng).Handler())
	defer srv.Close()
	if got := post(srv.URL, "/admin/start"); got != http.StatusOK {
		t.Errorf("start: %d, want 200", got)
	}
	if got := post(srv.URL, "/admin/start"); got != http.StatusConflict {
		t.Errorf("double start: %d, want 409", got)
	}
	if got := post(srv.URL, "/admin/stop"); got != http.StatusOK {
		t.Errorf("stop: %d, want 200", got)
	}
	if got := post(srv.URL, "/admin/stop"); got != http.StatusConflict {
		t.Errorf("double stop: %d, want 409", got)
	}
	if eng.running {
		t.Error("engine still running after stop")
	}
}

// fakeFleet is a canned FleetControl for the admin surface.
type fakeFleet struct{}

func (fakeFleet) FleetStatus() server.FleetStatus {
	return server.FleetStatus{Alive: 2, Workers: []server.FleetWorkerStatus{
		{ID: "worker-0001", State: "alive"}, {ID: "worker-0002", State: "alive"},
	}}
}

func TestAdminFleetEndpoint(t *testing.T) {
	sc := newScheduler(t)
	bare := httptest.NewServer(server.NewAPI(sc).Handler())
	defer bare.Close()
	resp, err := http.Get(bare.URL + "/admin/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || body.Error == "" {
		t.Errorf("fleet without coordinator: status %d, body %+v", resp.StatusCode, body)
	}

	srv := httptest.NewServer(server.NewAPI(sc).WithFleet(fakeFleet{}).Handler())
	defer srv.Close()
	resp2, err := http.Get(srv.URL + "/admin/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var fs server.FleetStatus
	if err := json.NewDecoder(resp2.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || fs.Alive != 2 || len(fs.Workers) != 2 {
		t.Errorf("fleet status: %d %+v", resp2.StatusCode, fs)
	}
}

// Lease-lifecycle races are typed: double Complete, Release-after-settle
// and stale assignment all wrap ErrLeaseConflict, the signal HTTP surfaces
// map to 409 for retrying workers.
func TestLeaseConflictsAreTyped(t *testing.T) {
	sc := newScheduler(t)
	if _, err := sc.Submit("a", tsProgram); err != nil {
		t.Fatal(err)
	}
	work, err := sc.PickWork(1)
	if err != nil || len(work) != 1 {
		t.Fatalf("PickWork: %v %v", work, err)
	}
	if err := sc.Complete(work[0], 0.7, 5); err != nil {
		t.Fatal(err)
	}
	if err := sc.Complete(work[0], 0.7, 5); !errors.Is(err, server.ErrLeaseConflict) {
		t.Errorf("double Complete: %v, want ErrLeaseConflict", err)
	}
	if err := sc.Release(work[0]); !errors.Is(err, server.ErrLeaseConflict) {
		t.Errorf("Release after Complete: %v, want ErrLeaseConflict", err)
	}
	if err := sc.AssignLease(work[0], "w"); !errors.Is(err, server.ErrLeaseConflict) {
		t.Errorf("AssignLease after Complete: %v, want ErrLeaseConflict", err)
	}
	if err := sc.HeartbeatLease(work[0].ID); !errors.Is(err, server.ErrLeaseConflict) {
		t.Errorf("HeartbeatLease after Complete: %v, want ErrLeaseConflict", err)
	}
}
