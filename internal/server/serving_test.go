package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/client"
	"repro/internal/lru"
	"repro/internal/server"
)

// newServingFixture boots an HTTP API with one trained job and returns the
// test server plus the job's ID.
func newServingFixture(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	sc := newScheduler(t)
	job, err := sc.Submit("ts", tsProgram)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.NewAPI(sc).Handler())
	t.Cleanup(srv.Close)
	return srv, job.ID
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// Regression: infer and refine on a missing job must be 404, not 400 —
// they used to hardcode StatusBadRequest for every scheduler error.
func TestInferMissingJobIs404(t *testing.T) {
	srv, _ := newServingFixture(t)
	for _, op := range []string{"infer", "infer/batch", "infer/stream"} {
		body := any(server.InferRequest{Input: []float64{1, 2, 3, 4}})
		if op != "infer" {
			body = server.InferBatchRequest{Inputs: [][]float64{{1, 2, 3, 4}}}
		}
		resp := postJSON(t, srv.URL+"/jobs/job-9999/"+op, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s on missing job: HTTP %d, want 404", op, resp.StatusCode)
		}
	}
}

func TestRefineMissingJobIs404(t *testing.T) {
	srv, id := newServingFixture(t)
	resp := postJSON(t, srv.URL+"/jobs/job-9999/refine", server.RefineRequest{Example: 0, Enabled: false})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("refine on missing job: HTTP %d, want 404", resp.StatusCode)
	}
	// A bad example on an existing job stays a 400: only unknown jobs 404.
	resp = postJSON(t, srv.URL+"/jobs/"+id+"/refine", server.RefineRequest{Example: 12345, Enabled: false})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("refine of unknown example: HTTP %d, want 400", resp.StatusCode)
	}
}

func TestFeedMissingJobIs404(t *testing.T) {
	srv, _ := newServingFixture(t)
	resp := postJSON(t, srv.URL+"/jobs/job-9999/feed", server.FeedRequest{
		Inputs:  [][]float64{{1, 2, 3, 4}},
		Outputs: [][]float64{{1, 0}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("feed on missing job: HTTP %d, want 404", resp.StatusCode)
	}
}

// Regression: NaN/±Inf inputs used to flow through the pseudo-model and
// come back as garbage predictions with HTTP 200.
func TestInferRejectsNonFiniteInputs(t *testing.T) {
	srv, id := newServingFixture(t)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		sc := newScheduler(t)
		job, err := sc.Submit("ts", tsProgram)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.RunRounds(1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sc.Infer(job.ID, []float64{1, bad, 3, 4}); err == nil {
			t.Errorf("Infer accepted %v", bad)
		}
		if _, _, err := sc.InferBatch(job.ID, [][]float64{{1, 2, 3, 4}, {1, bad, 3, 4}}); err == nil {
			t.Errorf("InferBatch accepted %v", bad)
		}
	}
	// JSON has no NaN/Inf literal, so over HTTP the decoder already rejects
	// them — assert the envelope is a 400 either way.
	resp := postJSON(t, srv.URL+"/jobs/"+id+"/infer", map[string]any{"input": []any{1, "NaN", 3, 4}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("string NaN: HTTP %d, want 400", resp.StatusCode)
	}
}

// Regression: a mid-batch feed failure used to discard the IDs of examples
// already durably appended in the same request.
func TestFeedPartialFailureReturnsCommittedIDs(t *testing.T) {
	srv, id := newServingFixture(t)
	resp := postJSON(t, srv.URL+"/jobs/"+id+"/feed", server.FeedRequest{
		Inputs:  [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 9}}, // third pair violates the schema
		Outputs: [][]float64{{1, 0}, {0, 1}, {1, 0}},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", resp.StatusCode)
	}
	var body server.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.IDs) != 2 {
		t.Fatalf("error envelope carries %d committed IDs (%v), want 2", len(body.IDs), body.IDs)
	}
	// The committed examples are really there: feeding one more pair gets
	// the next consecutive ID.
	var ok server.FeedResponse
	resp2 := postJSON(t, srv.URL+"/jobs/"+id+"/feed", server.FeedRequest{
		Inputs:  [][]float64{{2, 2, 2, 2}},
		Outputs: [][]float64{{1, 0}},
	})
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&ok); err != nil {
		t.Fatal(err)
	}
	if len(ok.IDs) != 1 || ok.IDs[0] != body.IDs[1]+1 {
		t.Fatalf("follow-up feed got IDs %v after committed %v", ok.IDs, body.IDs)
	}

	// The client surfaces the same partial IDs alongside the error.
	cl := client.New(srv.URL)
	ids, err := cl.Feed(context.Background(), id,
		[][]float64{{1, 1, 1, 1}, {3, 3}}, [][]float64{{1, 0}, {0, 1}})
	if err == nil {
		t.Fatal("client.Feed succeeded on a schema violation")
	}
	if len(ids) != 1 {
		t.Fatalf("client.Feed returned %d committed IDs (%v), want 1", len(ids), ids)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("client error %v is not a 400 APIError", err)
	}
}

func TestInferBatchMatchesSingleInfer(t *testing.T) {
	srv, id := newServingFixture(t)
	cl := client.New(srv.URL)
	ctx := context.Background()
	inputs := [][]float64{{1, 2, 3, 4}, {4, 3, 2, 1}, {0, 0, 0, 0}}
	batch, err := cl.InferBatch(ctx, id, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Outputs) != len(inputs) {
		t.Fatalf("%d outputs, want %d", len(batch.Outputs), len(inputs))
	}
	for i, in := range inputs {
		single, err := cl.Infer(ctx, id, in)
		if err != nil {
			t.Fatal(err)
		}
		if single.Model != batch.Model {
			t.Fatalf("model drifted between single (%q) and batch (%q)", single.Model, batch.Model)
		}
		if !reflect.DeepEqual(single.Output, batch.Outputs[i]) {
			t.Fatalf("input %d: batch output %v != single output %v", i, batch.Outputs[i], single.Output)
		}
	}
	// Whole-batch validation: one bad input fails the batch with no output.
	if _, err := cl.InferBatch(ctx, id, [][]float64{{1, 2, 3, 4}, {1}}); err == nil {
		t.Fatal("short input accepted in batch")
	}
}

func TestInferStreamContract(t *testing.T) {
	srv, id := newServingFixture(t)
	inputs := [][]float64{{1, 2, 3, 4}, {4, 3, 2, 1}, {7, 7, 7, 7}}
	payload, _ := json.Marshal(server.InferBatchRequest{Inputs: inputs})
	resp, err := http.Post(srv.URL+"/jobs/"+id+"/infer/stream", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no header line")
	}
	var hdr server.InferStreamHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Model == "" || hdr.Count != len(inputs) {
		t.Fatalf("header %+v", hdr)
	}
	cl := client.New(srv.URL)
	var lines int
	for sc.Scan() {
		var line server.InferStreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Index != lines {
			t.Fatalf("line %d has index %d", lines, line.Index)
		}
		single, err := cl.Infer(context.Background(), id, inputs[line.Index])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(line.Output, single.Output) {
			t.Fatalf("stream output %v != single output %v", line.Output, single.Output)
		}
		lines++
	}
	if lines != len(inputs) {
		t.Fatalf("%d stream lines, want %d", lines, len(inputs))
	}

	// The client-side iterator sees the same stream.
	got := make(map[int][]float64)
	model, err := cl.InferStream(context.Background(), id, inputs, func(i int, out []float64) error {
		got[i] = append([]float64(nil), out...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if model != hdr.Model || len(got) != len(inputs) {
		t.Fatalf("client stream: model %q, %d lines", model, len(got))
	}

	// Pre-stream validation: a bad input is a clean 400, not a broken stream.
	if _, err := cl.InferStream(context.Background(), id, [][]float64{{math.MaxFloat64, 1, 2, 3}, {1}}, func(int, []float64) error { return nil }); err == nil {
		t.Fatal("short input accepted in stream")
	}
}

// Acceptance: repeated-program workloads hit the plan cache >90% of the
// time across Submit, facade parses and candidate generation. The
// scheduler's plan cache serves a repeated program's candidates, so the
// grid is generated, and looked up, once.
func TestPlanCacheHitsOnRepeatedPrograms(t *testing.T) {
	progHits0, progMisses0 := lru.Lookups("program")
	candHits0, candMisses0 := lru.Lookups("candidates")
	planHits0, planMisses0 := lru.Lookups("plan")
	sc := newScheduler(t)
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := sc.Submit("tenant", tsProgram); err != nil {
			t.Fatal(err)
		}
	}
	progHits, progMisses := lru.Lookups("program")
	progHits, progMisses = progHits-progHits0, progMisses-progMisses0
	if progHits+progMisses < n {
		t.Fatalf("plan cache saw %d lookups, want ≥ %d", progHits+progMisses, n)
	}
	if hr := float64(progHits) / float64(progHits+progMisses); hr <= 0.9 {
		t.Fatalf("program cache hit rate %.2f, want > 0.90 (%d hits, %d misses)", hr, progHits, progMisses)
	}
	planHits, planMisses := lru.Lookups("plan")
	planHits, planMisses = planHits-planHits0, planMisses-planMisses0
	if planHits+planMisses != n {
		t.Fatalf("scheduler plan cache saw %d lookups, want %d", planHits+planMisses, n)
	}
	if hr := float64(planHits) / float64(planHits+planMisses); hr <= 0.9 {
		t.Fatalf("scheduler plan cache hit rate %.2f, want > 0.90 (%d hits, %d misses)", hr, planHits, planMisses)
	}
	candHits, candMisses := lru.Lookups("candidates")
	if candHits, candMisses = candHits-candHits0, candMisses-candMisses0; candHits+candMisses != 1 {
		t.Fatalf("candidate cache saw %d hits and %d misses, want the one lookup of the plan's build", candHits, candMisses)
	}
}

// The scrape carries both caches' lookups.
func TestAdminMetricsReportsPlanCache(t *testing.T) {
	before := map[string]uint64{}
	for _, cache := range []string{"program", "candidates", "plan"} {
		hits, misses := lru.Lookups(cache)
		before[cache] = hits + misses
	}
	srv, _ := newServingFixture(t)
	m := scrape(t, srv.URL)
	for cache, n := range before {
		seen := m[`easeml_plan_cache_events_total{cache="`+cache+`",event="hit"}`] +
			m[`easeml_plan_cache_events_total{cache="`+cache+`",event="miss"}`]
		if seen <= float64(n) {
			t.Errorf("%s cache: the scrape counts %g lookups, %d before the fixture; want more", cache, seen, n)
		}
	}
}
