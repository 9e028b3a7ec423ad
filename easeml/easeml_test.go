package easeml

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/server"
)

const imgProgram = "{input: {[Tensor[32, 32, 3]], []}, output: {[Tensor[10]], []}}"

func TestParseJob(t *testing.T) {
	job, err := ParseJob("cifar", imgProgram)
	if err != nil {
		t.Fatal(err)
	}
	if job.Template != "image-classification" || job.Workload == "" {
		t.Errorf("job %+v", job)
	}
	if len(job.Candidates) != 35 {
		t.Errorf("%d candidates", len(job.Candidates))
	}
	if job.Julia == "" || job.Python == "" {
		t.Error("missing generated code")
	}
	if _, err := ParseJob("bad", "nope"); err == nil {
		t.Error("invalid program accepted")
	}
}

func TestServiceLifecycle(t *testing.T) {
	svc := NewService(ServiceConfig{GPUs: 4, Seed: 9})
	job, err := svc.Submit("quick", imgProgram)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 32*32*3)
	id, err := svc.Feed(job.Name, in, make([]float64, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Refine(job.Name, id, false); err != nil {
		t.Fatal(err)
	}
	ran, err := svc.RunRounds(5)
	if err != nil || ran != 5 {
		t.Fatalf("ran %d rounds, err %v", ran, err)
	}
	st, err := svc.Status(job.Name)
	if err != nil || st.Trained != 5 || st.Best == nil {
		t.Fatalf("status %+v err %v", st, err)
	}
	out, model, err := svc.Infer(job.Name, in)
	if err != nil || len(out) != 10 || model == "" {
		t.Fatalf("infer out=%d model=%q err=%v", len(out), model, err)
	}
	if svc.GPUTime() <= 0 {
		t.Error("no GPU time consumed")
	}
	if svc.Handler() == nil {
		t.Error("nil handler")
	}
}

func TestSelectionPolicies(t *testing.T) {
	d := dataset.DeepLearning()
	rng := rand.New(rand.NewSource(4))
	train, test := d.Split(6, rng)
	sub := d.Subset(test)
	for _, policy := range []Policy{PolicyHybrid, PolicyGreedy, PolicyRoundRobin, PolicyRandom, PolicyFCFS, ""} {
		sel, err := NewSelection(SelectionConfig{
			Quality:   sub.Quality,
			Cost:      sub.Cost,
			Features:  d.QualityVectors(train),
			Policy:    policy,
			CostAware: true,
			Seed:      7,
		})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if _, err := sel.RunSteps(0); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if sel.AvgLoss() > 1e-12 {
			t.Errorf("%s: final loss %g", policy, sel.AvgLoss())
		}
		if sel.CumulativeCost() <= 0 || sel.CumulativeRegret() < 0 {
			t.Errorf("%s: accounting broken", policy)
		}
		if len(sel.Trace()) != 6*8 {
			t.Errorf("%s: %d trace points", policy, len(sel.Trace()))
		}
		if _, acc, ok := sel.Best(0); !ok || acc <= 0 {
			t.Errorf("%s: Best(0) = %g, %v", policy, acc, ok)
		}
	}
}

func TestSelectionDefaults(t *testing.T) {
	// nil cost and nil features still work.
	sel, err := NewSelection(SelectionConfig{
		Quality: [][]float64{{0.5, 0.9}, {0.7, 0.3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sel.TotalCost() != 4 {
		t.Errorf("unit costs expected, total %g", sel.TotalCost())
	}
	if _, err := sel.RunBudget(2); err != nil {
		t.Fatal(err)
	}
}

func TestSelectionValidation(t *testing.T) {
	if _, err := NewSelection(SelectionConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewSelection(SelectionConfig{Quality: [][]float64{{0.5}}, Policy: "bogus"}); err == nil {
		t.Error("bogus policy accepted")
	}
	if _, err := NewSelection(SelectionConfig{
		Quality: [][]float64{{0.5}},
		Cost:    [][]float64{{-1}},
	}); err == nil {
		t.Error("negative cost accepted")
	}
}

func TestSelectionExtensions(t *testing.T) {
	quality := [][]float64{
		{0.3, 0.4, 0.5, 0.6},
		{0.3, 0.4, 0.5, 0.6},
		{0.3, 0.4, 0.5, 0.6},
	}
	// Weighted greedy.
	sel, err := NewSelection(SelectionConfig{Quality: quality, Weights: []float64{1, 4, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.RunSteps(0); err != nil {
		t.Fatal(err)
	}
	if sel.AvgLoss() > 1e-12 {
		t.Errorf("weighted selection final loss %g", sel.AvgLoss())
	}
	// Weights are incompatible with non-greedy policies.
	if _, err := NewSelection(SelectionConfig{Quality: quality, Weights: []float64{1}, Policy: PolicyRandom}); err == nil {
		t.Error("weights with random policy accepted")
	}
	// Guarantee window wraps any policy and still completes.
	sel, err = NewSelection(SelectionConfig{Quality: quality, Policy: PolicyFCFS, GuaranteeWindow: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.RunSteps(0); err != nil {
		t.Fatal(err)
	}
	serves := map[int]int{}
	for _, tp := range sel.Trace() {
		serves[tp.User]++
	}
	if len(serves) != 3 {
		t.Errorf("guaranteed FCFS starved tenants: %v", serves)
	}
}

func TestServiceEngineDrain(t *testing.T) {
	svc := NewService(ServiceConfig{GPUs: 24, Seed: 3, Alpha: 0.35, Workers: 8})
	total := 0
	for _, name := range []string{"a", "b"} {
		job, err := svc.Submit(name, imgProgram)
		if err != nil {
			t.Fatal(err)
		}
		total += len(job.Candidates)
	}
	sum, err := svc.DrainEngine(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Rounds != int64(total) {
		t.Errorf("drained %d rounds, want %d", sum.Rounds, total)
	}
	if sum.Speedup < 2 {
		t.Errorf("virtual speedup %.2fx, want ≥2x at 8 workers on α=0.35", sum.Speedup)
	}
	if mk, sd := svc.VirtualTimes(); mk != sum.Makespan || sd != sum.SingleDevice {
		t.Errorf("VirtualTimes (%g, %g) disagrees with summary (%g, %g)", mk, sd, sum.Makespan, sum.SingleDevice)
	}

	// A cancelled drain must not masquerade as a complete summary.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.DrainEngine(cancelled); err == nil {
		t.Error("cancelled DrainEngine should error")
	}

	plain := NewService(ServiceConfig{GPUs: 4})
	if err := plain.StartEngine(); err == nil {
		t.Error("StartEngine without workers should fail")
	}
	if _, err := plain.DrainEngine(context.Background()); err == nil {
		t.Error("DrainEngine without workers should fail")
	}
	if _, ok := plain.EngineMetrics(); ok {
		t.Error("EngineMetrics without workers should report !ok")
	}
}

func TestServiceEngineHTTPAdmin(t *testing.T) {
	svc := NewService(ServiceConfig{GPUs: 8, Seed: 5, Workers: 4})
	if _, err := svc.Submit("a", imgProgram); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	getMetrics := func() server.MetricsResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + "/admin/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status %d", resp.StatusCode)
		}
		var m server.MetricsResponse
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	m := getMetrics()
	if m.Jobs != 1 || m.Engine == nil || m.Engine.Running || m.Engine.Workers != 4 {
		t.Fatalf("initial metrics %+v engine %+v", m, m.Engine)
	}

	post := func(path string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/admin/start"); code != http.StatusOK {
		t.Fatalf("start returned %d", code)
	}
	if code := post("/admin/start"); code != http.StatusConflict {
		t.Errorf("double start returned %d, want 409", code)
	}
	// Wait for the engine to finish the job's 35 candidates.
	deadline := time.Now().Add(10 * time.Second)
	for getMetrics().Rounds < 35 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	m = getMetrics()
	if m.Rounds != 35 || m.InFlight != 0 {
		t.Errorf("after drain: %+v", m)
	}
	if m.Engine.Completed != 35 || m.Engine.VirtualMakespan <= 0 {
		t.Errorf("engine block %+v", m.Engine)
	}
	if code := post("/admin/stop"); code != http.StatusOK {
		t.Errorf("stop returned %d", code)
	}
	if code := post("/admin/stop"); code != http.StatusConflict {
		t.Errorf("double stop returned %d, want 409", code)
	}

	// A service without an engine: no engine block, start/stop conflict.
	plain := NewService(ServiceConfig{GPUs: 4})
	plainSrv := httptest.NewServer(plain.Handler())
	defer plainSrv.Close()
	resp, err := http.Get(plainSrv.URL + "/admin/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var pm server.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&pm); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pm.Engine != nil {
		t.Error("engineless service reports an engine block")
	}
	sr, err := http.Post(plainSrv.URL+"/admin/start", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if sr.StatusCode != http.StatusConflict {
		t.Errorf("engineless start returned %d, want 409", sr.StatusCode)
	}
}

// A durable service killed mid-training recovers everything from its data
// directory and, after resuming, lands on the same best models as an
// uninterrupted in-memory run with the same seed.
func TestServiceRecoversFromDataDir(t *testing.T) {
	const prog = "{input: {[Tensor[4]], [next]}, output: {[Tensor[2]], []}}"
	dir := t.TempDir()

	ref := NewService(ServiceConfig{GPUs: 4, Seed: 5})
	refJob, err := ref.Submit("ts", prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.RunRounds(10000); err != nil {
		t.Fatal(err)
	}
	refStatus, err := ref.Status(refJob.Name)
	if err != nil {
		t.Fatal(err)
	}

	svc1, err := OpenService(ServiceConfig{GPUs: 4, Seed: 5, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	job, err := svc1.Submit("ts", prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc1.Feed(job.Name, []float64{1, 2, 3, 4}, []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc1.RunRounds(3); err != nil {
		t.Fatal(err)
	}
	// Crash: svc1 is abandoned without Close — no compaction, no flush
	// beyond the per-append one.

	svc2, err := OpenService(ServiceConfig{GPUs: 4, Seed: 5, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if svc2.Recovered.Jobs != 1 || svc2.Recovered.Models != 3 || svc2.Recovered.Examples != 1 {
		t.Fatalf("recovered %+v", svc2.Recovered)
	}
	st, err := svc2.Status(job.Name)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trained != 3 || st.Examples != 1 {
		t.Fatalf("recovered status %+v", st)
	}
	if _, err := svc2.RunRounds(10000); err != nil {
		t.Fatal(err)
	}
	got, err := svc2.Status(job.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trained != refStatus.Trained {
		t.Errorf("recovered run trained %d candidates, reference %d", got.Trained, refStatus.Trained)
	}
	if got.Best == nil || refStatus.Best == nil {
		t.Fatal("missing best model")
	}
	if got.Best.Name != refStatus.Best.Name || got.Best.Accuracy != refStatus.Best.Accuracy {
		t.Errorf("recovered best %s@%g, reference %s@%g",
			got.Best.Name, got.Best.Accuracy, refStatus.Best.Name, refStatus.Best.Accuracy)
	}

	// Close compacts; a third boot replays the snapshot with no WAL tail.
	svc3, err := OpenService(ServiceConfig{GPUs: 4, Seed: 5, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc3.Close()
	if svc3.Recovered.Jobs != 1 || svc3.Recovered.Models != got.Trained {
		t.Errorf("post-compaction recovery %+v, want %d models", svc3.Recovered, got.Trained)
	}
}

// The WAL tuning knobs flow through ServiceConfig: tiny segments roll
// under a feed workload, CompactStep folds the oldest sealed segment (also
// reachable as POST /admin/snapshot?mode=incremental), and a crash after
// the step still recovers everything.
func TestServiceWALSegmentsAndCompactStep(t *testing.T) {
	const prog = "{input: {[Tensor[4]], [next]}, output: {[Tensor[2]], []}}"
	dir := t.TempDir()
	cfg := ServiceConfig{GPUs: 4, Seed: 5, DataDir: dir, WALSegmentBytes: 512}

	svc1, err := OpenService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job, err := svc1.Submit("ts", prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := svc1.Feed(job.Name, []float64{1, 2, 3, float64(i)}, []float64{0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	folded, err := svc1.CompactStep()
	if err != nil {
		t.Fatal(err)
	}
	if !folded {
		t.Fatal("CompactStep folded nothing; segments did not roll at 512 bytes")
	}
	// The HTTP form of the same step.
	req := httptest.NewRequest(http.MethodPost, "/admin/snapshot?mode=incremental", nil)
	rw := httptest.NewRecorder()
	svc1.Handler().ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("POST /admin/snapshot?mode=incremental: %d %s", rw.Code, rw.Body)
	}
	if _, err := svc1.Feed(job.Name, []float64{9, 9, 9, 9}, []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	// Crash without Close.

	svc2, err := OpenService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	st, err := svc2.Status(job.Name)
	if err != nil {
		t.Fatal(err)
	}
	if st.Examples != 13 {
		t.Errorf("recovered %d examples after incremental compaction + crash, want 13", st.Examples)
	}
}

// A WAL failure takes the service out of rotation: once a segment roll
// fails (the data directory replaced by a regular file, so opening the next
// segment fails even as root) the log is poisoned, every later feed fails
// and GET /readyz answers 503.
func TestServiceNotReadyAfterWALFailure(t *testing.T) {
	const prog = "{input: {[Tensor[4]], [next]}, output: {[Tensor[2]], []}}"
	dir := filepath.Join(t.TempDir(), "data")
	svc, err := OpenService(ServiceConfig{GPUs: 4, Seed: 5, DataDir: dir, WALSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	readyz := func() int {
		rw := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rw.Code
	}
	job, err := svc.Submit("ts", prog)
	if err != nil {
		t.Fatal(err)
	}
	if code := readyz(); code != http.StatusOK {
		t.Fatalf("GET /readyz on a healthy service = %d, want 200", code)
	}
	if err := os.Rename(dir, dir+".moved"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Appends keep landing in the open segment until one has to roll.
	var feedErr error
	for i := 0; i < 100 && feedErr == nil; i++ {
		_, feedErr = svc.Feed(job.Name, []float64{1, 2, 3, float64(i)}, []float64{0, 1})
	}
	if feedErr == nil {
		t.Fatal("no feed failed although every segment roll must")
	}
	if svc.Ready() {
		t.Error("Ready() after a failed segment roll = true")
	}
	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Errorf("GET /readyz after a failed segment roll = %d, want 503", code)
	}
	if _, err := svc.Feed(job.Name, []float64{9, 9, 9, 9}, []float64{1, 0}); err == nil {
		t.Error("a feed after the WAL failed was acknowledged")
	}
}

// The facade's fleet surface: a service with the coordinator enabled serves
// the /fleet/* protocol (both on Handler and the dedicated fleet address),
// remote agents drain the jobs, and FleetStatus / GET /admin/fleet report
// the registry.
func TestServiceFleet(t *testing.T) {
	const prog = "{input: {[Tensor[4]], [next]}, output: {[Tensor[2]], []}}" // 4 candidates
	svc, err := OpenService(ServiceConfig{
		GPUs: 4, Seed: 11,
		FleetAddr: "127.0.0.1:0",
		LeaseTTL:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.FleetAddr() == "" {
		t.Fatal("no bound fleet address")
	}
	job, err := svc.Submit("fleet", prog)
	if err != nil {
		t.Fatal(err)
	}

	agent, err := fleet.NewAgent(fleet.AgentConfig{
		Coordinator:  "http://" + svc.FleetAddr(),
		Name:         "facade-worker",
		Devices:      2,
		PollInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = agent.Run(ctx) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := svc.Status(job.Name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Trained == st.NumCandidates {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet worker never drained the job: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	<-done

	fs, ok := svc.FleetStatus()
	if !ok {
		t.Fatal("FleetStatus reports no coordinator")
	}
	if len(fs.Workers) != 1 || fs.Workers[0].Completed != 4 {
		t.Errorf("fleet status %+v", fs)
	}

	// The same registry over HTTP, through the combined service handler.
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/admin/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var adminFS server.FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&adminFS); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || adminFS.Left != 1 {
		t.Errorf("GET /admin/fleet: status %d, body %+v (want one departed worker)", resp.StatusCode, adminFS)
	}
	// The worker protocol is mounted on the service handler too.
	reg, err := http.Post(srv.URL+"/fleet/register", "application/json",
		strings.NewReader(`{"name":"h","devices":1,"alpha":0.9}`))
	if err != nil {
		t.Fatal(err)
	}
	reg.Body.Close()
	if reg.StatusCode != http.StatusOK {
		t.Errorf("register via service handler: HTTP %d", reg.StatusCode)
	}
}
