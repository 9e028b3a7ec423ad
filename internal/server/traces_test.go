package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

func newTestScheduler(t testing.TB) *Scheduler {
	t.Helper()
	return NewScheduler(NewSimTrainer(cluster.NewPool(8, 0.9), 42), nil, "")
}

// RouteLabel must map every conceivable path to a bounded label set: IDs
// collapse to {id} placeholders and junk collapses to "other", so hostile
// or buggy clients cannot mint unbounded per-route series.
func TestRouteLabelCardinality(t *testing.T) {
	cases := map[string]string{
		"/jobs":    "/jobs",
		"/metrics": "/metrics",
		"/healthz": "/healthz",
		"/readyz":  "/readyz",

		"/admin/rounds":    "/admin/rounds",
		"/admin/traces":    "/admin/traces",
		"/admin/decisions": "/admin/decisions",
		"/fleet/lease":     "/fleet/lease",
		"/fleet/complete":  "/fleet/complete",

		// IDs collapse.
		"/jobs/job-17":              "/jobs/{id}",
		"/jobs/job-17/feed":         "/jobs/{id}/feed",
		"/admin/traces/cafe0123":    "/admin/traces/{id}",
		"/admin/traces/anything/at": "/admin/traces/{id}",
		"/debug/pprof/":             "/debug/pprof",
		"/debug/pprof/profile":      "/debug/pprof",

		// 404s and unknown subtrees collapse to one label.
		"/":                  "other",
		"/favicon.ico":       "other",
		"/admin/unknown":     "other",
		"/admin/metrics":     "other",
		"/fleet/unknown":     "other",
		"/jobs.txt":          "other",
		"/..%2fadmin/quotas": "other",
	}
	for path, want := range cases {
		r := &http.Request{URL: &url.URL{Path: path}}
		if got := RouteLabel(r); got != want {
			t.Errorf("RouteLabel(%q) = %q, want %q", path, got, want)
		}
	}

	// Sweep: a flood of distinct hostile paths must land on a small fixed
	// label set no matter what the attacker appends.
	labels := map[string]bool{}
	for _, prefix := range []string{"/jobs/", "/admin/traces/", "/admin/", "/fleet/", "/x/", "/debug/pprof/"} {
		for _, suffix := range []string{"a", "b/c", "d?e=f", strings.Repeat("z", 200)} {
			r := &http.Request{URL: &url.URL{Path: prefix + suffix}}
			labels[RouteLabel(r)] = true
		}
	}
	if len(labels) > 6 {
		t.Errorf("hostile sweep minted %d labels, want a bounded handful: %v", len(labels), labels)
	}
}

// An invalid inbound X-Easeml-Trace header must be re-minted, not echoed:
// junk IDs would poison log correlation and the flight recorder's keying.
func TestInvalidTraceHeaderReminted(t *testing.T) {
	sc := newTestScheduler(t)
	srv := httptest.NewServer(NewAPI(sc).Handler())
	defer srv.Close()

	for _, junk := range []string{"", "not hex!", "<script>", strings.Repeat("a", 65)} {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/jobs", nil)
		if junk != "" {
			req.Header.Set(telemetry.TraceHeader, junk)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get(telemetry.TraceHeader)
		if !telemetry.ValidTraceID(got) {
			t.Errorf("inbound %q: response trace %q is not a valid ID", junk, got)
		}
		if junk != "" && got == junk {
			t.Errorf("invalid inbound trace %q echoed instead of re-minted", junk)
		}
	}

	// A valid inbound ID propagates untouched.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/jobs", nil)
	req.Header.Set(telemetry.TraceHeader, "cafe0123cafe0123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(telemetry.TraceHeader); got != "cafe0123cafe0123" {
		t.Errorf("valid trace header not propagated: got %q", got)
	}
}

func TestHealthAndReadinessProbes(t *testing.T) {
	sc := newTestScheduler(t)

	// Without a readiness hook both probes answer 200 — a hand-wired API
	// has no boot sequence to wait out.
	srv := httptest.NewServer(NewAPI(sc).Handler())
	defer srv.Close()
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}

	// A readiness hook gates /readyz only; /healthz stays 200 (alive but
	// not ready is exactly the drain state).
	ready := false
	gated := httptest.NewServer(NewAPI(sc).WithReadiness(func() bool { return ready }).Handler())
	defer gated.Close()
	resp, err := http.Get(gated.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("GET /readyz while not ready = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(gated.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz while not ready = %d, want 200", resp.StatusCode)
	}
	ready = true
	resp, err = http.Get(gated.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]bool
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !body["ready"] {
		t.Errorf("GET /readyz once ready = %d %v, want 200 ready", resp.StatusCode, body)
	}
}

// One completed lease must be queryable end to end over the admin API:
// the listing filters by job, the tree endpoint returns the lease's span
// tree with the pick stages and settle under the lease root, and the
// decisions endpoint links the pick's provenance record to the same trace.
func TestAdminTracesAndDecisionsEndpoints(t *testing.T) {
	sc := newTestScheduler(t)
	job, err := sc.Submit("traces-api", recoveryTSProgram)
	if err != nil {
		t.Fatal(err)
	}
	work, err := sc.PickWork(1)
	if err != nil || len(work) != 1 {
		t.Fatalf("PickWork: %v (%d leases)", err, len(work))
	}
	l := work[0]
	if err := sc.Complete(l, 0.5, 1); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewAPI(sc).Handler())
	defer srv.Close()

	var listing TracesResponse
	getJSON(t, srv.URL+"/admin/traces?job="+job.ID, &listing)
	if listing.Capacity < 1 {
		t.Errorf("listing capacity = %d, want the ring size", listing.Capacity)
	}
	var sum *telemetry.TraceSummary
	for i := range listing.Traces {
		if listing.Traces[i].TraceID == l.Trace {
			sum = &listing.Traces[i]
		}
	}
	if sum == nil {
		t.Fatalf("lease trace %s missing from job-filtered listing %+v", l.Trace, listing.Traces)
	}
	if sum.RootOp != "lease" || sum.Outcome != "completed" || sum.Job != job.ID {
		t.Errorf("trace summary wrong: %+v", sum)
	}

	var tree TraceResponse
	getJSON(t, srv.URL+"/admin/traces/"+l.Trace, &tree)
	if tree.TraceID != l.Trace || tree.Spans < 3 {
		t.Fatalf("tree response: %+v", tree)
	}
	var root *telemetry.SpanNode
	for _, n := range tree.Tree {
		if n.Op == "lease" {
			root = n
		}
	}
	if root == nil {
		t.Fatalf("no lease root in tree: %+v", tree.Tree)
	}
	childOps := map[string]bool{}
	for _, c := range root.Children {
		childOps[c.Op] = true
	}
	for _, op := range []string{"pick_select", "settle"} {
		if !childOps[op] {
			t.Errorf("lease root missing %s child; has %v", op, childOps)
		}
	}

	var decisions DecisionsResponse
	getJSON(t, srv.URL+"/admin/decisions?job="+job.ID, &decisions)
	var pick *DecisionRecord
	for i := range decisions.Decisions {
		if decisions.Decisions[i].Kind == DecisionPick {
			pick = &decisions.Decisions[i]
		}
	}
	if pick == nil {
		t.Fatalf("no pick decision for job %s: %+v", job.ID, decisions.Decisions)
	}
	if pick.Trace != l.Trace {
		t.Errorf("pick decision trace %q not linked to lease trace %q", pick.Trace, l.Trace)
	}
	if pick.Arm != l.Arm || pick.UCB != l.UCB {
		t.Errorf("pick decision (arm %d, ucb %g) disagrees with lease (arm %d, ucb %g)",
			pick.Arm, pick.UCB, l.Arm, l.UCB)
	}
	if len(pick.TopUCB) == 0 {
		t.Error("pick decision has no top-K UCB scores")
	}

	// Filters that match nothing return empty slices, not null.
	var empty DecisionsResponse
	getJSON(t, srv.URL+"/admin/decisions?job=no-such-job", &empty)
	if empty.Decisions == nil || len(empty.Decisions) != 0 {
		t.Errorf("no-match decisions = %#v, want empty non-nil slice", empty.Decisions)
	}

	// Error surfaces: unknown trace 404, malformed filters 400.
	for path, want := range map[string]int{
		"/admin/traces/feedfeedfeedfeed":   http.StatusNotFound,
		"/admin/traces?min_duration=bogus": http.StatusBadRequest,
		"/admin/traces?limit=-3":           http.StatusBadRequest,
		"/admin/decisions?limit=zero":      http.StatusBadRequest,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}
