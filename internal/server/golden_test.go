package server

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from what the admin endpoints serve now")

// goldenSpans cover the span shapes the admin trace endpoints serve: a
// lease root that ended badly (so its trace is retained), a worker span
// imported with attributes and its own process, and an errored settle with
// a WAL child.
var goldenSpans = []telemetry.SpanData{
	{TraceID: "90fd000000000001", SpanID: "a0000001", Op: "lease",
		StartNS: 1_700_000_000_000_000_000, DurationNS: 5_000_000,
		Attrs: map[string]string{"job": "golden-job", "tenant": "golden", "candidate": "resnet/lr=0.1", "outcome": "preempted"}},
	{TraceID: "90fd000000000001", SpanID: "a0000002", ParentID: "a0000001", Op: "pick_select",
		StartNS: 1_700_000_000_000_000_000, DurationNS: 12_000},
	{TraceID: "90fd000000000001", SpanID: "a0000003", ParentID: "a0000001", Op: "worker_run", Process: "worker:golden-w1",
		StartNS: 1_700_000_000_000_100_000, DurationNS: 3_000_000,
		Attrs: map[string]string{"job": "golden-job", "candidate": "resnet/lr=0.1", "worker": "golden-w1", "accuracy": "0.8125", "cost": "1.5"}},
	{TraceID: "90fd000000000002", SpanID: "b0000001", Op: "lease",
		StartNS: 1_700_000_001_000_000_000, DurationNS: 2_000_000,
		Attrs: map[string]string{"job": "golden-job", "tenant": "golden", "candidate": "vgg/lr=0.01", "outcome": "failed"}},
	{TraceID: "90fd000000000002", SpanID: "b0000002", ParentID: "b0000001", Op: "settle",
		StartNS: 1_700_000_001_001_000_000, DurationNS: 40_000, Err: "server: job golden-job failed: ill-conditioned",
		Attrs: map[string]string{"outcome": "failed"}},
	{TraceID: "90fd000000000002", SpanID: "b0000003", ParentID: "b0000002", Op: "wal_append",
		StartNS: 1_700_000_001_001_010_000, DurationNS: 20_000, Attrs: map[string]string{"wal_seq": "17"}},
}

// goldenDecisions cover every decision shape: a pick with a full top-K
// table, a speculative pick, an admission verdict and a preemption.
var goldenDecisions = []DecisionRecord{
	{Kind: DecisionAdmission, TimeNS: 1_700_000_000_000_000_001, Tenant: "golden", Outcome: "granted",
		Class: "standard", ClassWeights: classWeights, BudgetLimit: 100, BudgetUsed: 12.5},
	{Kind: DecisionPick, TimeNS: 1_700_000_000_000_000_002, Trace: "90fd000000000001", Tenant: "golden", Job: "golden-job",
		Candidate: "resnet/lr=0.1", Arm: 7, UCB: 0.912, TopUCB: []ArmScore{{Arm: 7, UCB: 0.912}, {Arm: 3, UCB: 0.871}, {Arm: 11, UCB: 0.905}},
		Candidates: 33, Jobs: 4, Class: "standard", ClassWeights: classWeights, BudgetLimit: 100, BudgetUsed: 14},
	{Kind: DecisionPick, TimeNS: 1_700_000_001_000_000_003, Trace: "90fd000000000002", Tenant: "golden", Job: "golden-job",
		Candidate: "vgg/lr=0.01", Arm: 2, UCB: 0.7, Jobs: 4, Class: "standard", ClassWeights: classWeights,
		BudgetLimit: 100, BudgetUsed: 15.5, Detail: "speculative"},
	{Kind: DecisionPreemption, TimeNS: 1_700_000_002_000_000_004, Trace: "90fd000000000001", Tenant: "golden", Job: "golden-job",
		Candidate: "resnet/lr=0.1", Arm: 7, Class: "best_effort", ClassWeights: classWeights,
		Outcome: "preempted", Detail: "demanding job golden-vip"},
}

// The admin endpoints' JSON is a public shape: fixed spans and decisions
// must serve byte for byte what testdata/golden holds, however the
// recorder and the decision ring store them.
func TestAdminEndpointsGoldenJSON(t *testing.T) {
	sc := newTestScheduler(t)
	for _, sd := range goldenSpans {
		telemetry.DefaultRecorder().Record(sd)
	}
	for _, d := range goldenDecisions {
		d.TopUCB = append([]ArmScore(nil), d.TopUCB...)
		sc.decisions.Add(&d)
	}
	srv := httptest.NewServer(NewAPI(sc).Handler())
	defer srv.Close()

	for file, path := range map[string]string{
		"traces.json":    "/admin/traces?job=golden-job",
		"trace-bad.json": "/admin/traces/90fd000000000001",
		"trace-err.json": "/admin/traces/90fd000000000002",
		"decisions.json": "/admin/decisions",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, %v", path, resp.StatusCode, err)
		}
		golden := filepath.Join("testdata", "golden", file)
		if *updateGolden {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GET %s changed shape:\n got %s\nwant %s", path, got, want)
		}
	}
}
