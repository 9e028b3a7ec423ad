package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/easeml"
	"repro/internal/experiments"
)

// The committed BENCHMARK.json is the metric catalog, rendered: names, units,
// directions and bounds are written down in one place only.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(committed), bytes.TrimSpace(benchmarkJSON())) {
		t.Error("BENCHMARK.json differs from the catalog; regenerate it with `go run ./bench -print-benchmark-json > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, m := range e2eMetrics {
		if seen[m.Name] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: duplicate or bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		seen[m.Name] = true
	}
	for _, m := range layerMetrics {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("per-layer metric %s: duplicate, or name/unit too long", m.Name)
		}
		seen[m.Name] = true
	}
	if len(layerMetrics) > 128 || len(e2eMetrics) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract", len(layerMetrics), len(e2eMetrics))
	}
}

// smokeRun runs one workload at smoke sizes inside a scratch directory.
func smokeRun(t *testing.T, workload string, trace bool) (*runResult, string) {
	t.Helper()
	dir := t.TempDir()
	t.Chdir(dir)
	var report bytes.Buffer
	res, err := runOne(runOptions{workload: workload, seed: 1, seconds: 0.3, smoke: true, trace: trace, out: "out"}, &report)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s (trace=%v): correct=%v attempted=%d failed=%d\n%s", workload, trace, res.Correct, res.Attempted, res.Failed, report.String())
	}
	return res, dir
}

// Every workload end to end, untraced and traced, all output checks on.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, _ := smokeRun(t, w.Name, false)
			if len(res.Metrics) != len(e2eMetrics) {
				t.Errorf("untraced run reports %d metrics, the catalog has %d end-to-end", len(res.Metrics), len(e2eMetrics))
			}
			for _, m := range e2eMetrics {
				if v, ok := res.Metrics[m.Name]; !ok || !(v.Value > 0) || v.Unit != m.Unit {
					t.Errorf("%s = %+v: every workload emits every end-to-end metric, positive", m.Name, v)
				}
			}

			res, dir := smokeRun(t, w.Name, true)
			if len(res.Metrics) != len(layerMetrics) {
				t.Errorf("traced run reports %d metrics, the catalog has %d per-layer", len(res.Metrics), len(layerMetrics))
			}
			for _, m := range layerMetrics {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("traced run lacks %s", m.Name)
				}
			}
			data, err := os.ReadFile(filepath.Join(dir, "out", "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct{ Spans []span }
			if err := json.Unmarshal(data, &trace); err != nil || len(trace.Spans) == 0 {
				t.Fatalf("trace file: %v, %d spans", err, len(trace.Spans))
			}
			layers := map[string]bool{}
			for _, s := range trace.Spans {
				layers[layerOf(s.Name)] = true
			}
			value := func(name string) float64 { return res.Metrics[name].Value }
			for _, micro := range []string{"linalg.extend_us", "gp.observe_us", "bandit.select_us", "server.pickwork_us",
				"server.specgrant_us", "storage.append_ms_p50", "storage.recover_mb_per_s"} {
				if !(value(micro) > 0) {
					t.Errorf("%s = %v after the micro phase", micro, value(micro))
				}
			}

			// Each workload's bypass prediction.
			switch w.Name {
			case "select_paper":
				if len(layers) != 1 || !layers["core"] {
					t.Errorf("select_paper recorded spans outside core: %v", layers)
				}
				fallthrough
			case "drain_engine":
				if value("storage.wal_events") != 0 || value("http.requests") != 0 {
					t.Errorf("%s must write no WAL event and serve no HTTP request: %v, %v",
						w.Name, value("storage.wal_events"), value("http.requests"))
				}
				if value("fleet.cycle_ms_p50") != 0 || value("client.feed.rtt_ms") != 0 {
					t.Errorf("%s reports fleet or client time", w.Name)
				}
			case "drain_fleet":
				if !(value("fleet.cycle_ms_p50") > 0) || !(value("storage.wal_events") > 0) || !(value("fleet.polls_per_grant") > 0) {
					t.Errorf("drain_fleet: cycle %v, WAL events %v, polls per grant %v",
						value("fleet.cycle_ms_p50"), value("storage.wal_events"), value("fleet.polls_per_grant"))
				}
				if r := value("fleet.cycle_residual_frac"); r < -0.01 || r > 1 {
					t.Errorf("cycle residual %v is not a share of the cycle", r)
				}
			case "api_mixed":
				for _, m := range []string{"client.feed.rtt_ms", "http.feed.handler_ms", "client.infer.rtt_ms", "api.recover_s", "storage.write_amp"} {
					if !(value(m) > 0) {
						t.Errorf("api_mixed: %s = %v", m, value(m))
					}
				}
				if value("client.feed.rtt_ms") < value("http.feed.handler_ms") {
					t.Errorf("round trip %v shorter than the handler inside it %v", value("client.feed.rtt_ms"), value("http.feed.handler_ms"))
				}
			}
		})
	}
}

// Infer and InferBatch are the built-in bypass of every storage change:
// they must not append to the WAL.
func TestInferNeverTouchesWAL(t *testing.T) {
	t.Chdir(t.TempDir())
	c := &runCtx{seed: 1, seconds: 0.1, smoke: true, nproc: runtime.NumCPU(), workdir: "."}
	h, err := openHTTPService(c, easeml.ServiceConfig{Seed: 5}, true, false)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	job, err := h.cl.Submit(context.Background(), "t", seriesProgram)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.svc.RunRounds(1); err != nil {
		t.Fatal(err)
	}
	before, _, err := h.scrape()
	if err != nil {
		t.Fatal(err)
	}
	in := pixelVector(seriesInputs, 0)
	for i := 0; i < 20; i++ {
		if _, err := h.cl.Infer(context.Background(), job.ID, in); err != nil {
			t.Fatal(err)
		}
		if _, err := h.cl.InferBatch(context.Background(), job.ID, [][]float64{in, in}); err != nil {
			t.Fatal(err)
		}
	}
	after, _, err := h.scrape()
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	if n := d.sumName("easeml_wal_appends_total"); n != 0 {
		t.Errorf("40 infer ops appended %v WAL events", n)
	}
	if n := d.sumName("easeml_infer_requests_total"); n != 40 {
		t.Errorf("scrape delta saw %v infer requests, sent 40", n)
	}
}

// The harness's simulation set-up is the paper protocol: for every setting,
// split 0 reproduces experiments.Run on the same seed point for point.
func TestSelectPaperMatchesExperimentsRun(t *testing.T) {
	const seed = kernelSeed // experiments.Run tunes the kernel and draws the split from one seed
	for _, p := range prepareSelect(true) {
		var lat []float64
		own, steps, err := runSplit(&runCtx{seed: seed}, p, 0, &lat, nil)
		if err != nil || steps == 0 || len(lat) != steps {
			t.Fatalf("%s: %d steps, %d latencies, %v", p.name, steps, len(lat), err)
		}
		res, err := experiments.Run(experiments.Protocol{
			Dataset: p.data, TestUsers: p.testUsers, Runs: 1, BudgetFrac: p.budgetFrac,
			CostAware: true, Seed: seed, GridPoints: selectGrid,
		}, []experiments.Strategy{experiments.EaseML()})
		if err != nil {
			t.Fatal(err)
		}
		for g, v := range res.Series[0].Avg {
			if v != own[g] {
				t.Fatalf("%s: loss at %d%% is %v, experiments.Run gives %v", p.name, g, own[g], v)
			}
		}
		if own[0] <= own[selectGrid] {
			t.Errorf("%s: loss did not fall over the budget (%v → %v)", p.name, own[0], own[selectGrid])
		}
	}
}

// `bench compare A.json B.json` end to end on two written result files.
func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		f := resultFile{Env: environment{Commit: name}, Workloads: map[string]*workloadSamples{}}
		for _, w := range workloads {
			ws := &workloadSamples{Correct: true, E2E: map[string][]float64{}}
			for _, m := range e2eMetrics {
				s := 1.0
				if m.Name == "op_p50_ms" && w.Name == "api_mixed" {
					s = scale
				}
				ws.E2E[m.Name] = []float64{100 * s, 101 * s, 99 * s}
			}
			f.Workloads[w.Name] = ws
		}
		data, _ := json.Marshal(f)
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a", 1), write("same", 1), write("slow", 1.3)
	var out bytes.Buffer
	if code := realMain([]string{"compare", a, same}, &out, io.Discard); code != 0 {
		t.Errorf("identical files: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := realMain([]string{"compare", a, slow}, &out, io.Discard); code != 1 {
		t.Errorf("a 30%% slower op_p50_ms must fail the comparison: exit %d", code)
	}
	if !strings.Contains(out.String(), "1 worse, 0 unresolved") {
		t.Errorf("report:\n%s", out.String())
	}
	if n := strings.Count(out.String(), "\n"); n < len(workloads)*len(e2eMetrics) {
		t.Errorf("expected one row per (metric, workload), got %d lines", n)
	}
}
