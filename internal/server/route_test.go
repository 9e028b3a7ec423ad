package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// servedPatterns is the API's route table as Handler registers it: with
// "other", the closed set of route labels the HTTP middleware may mint.
var servedPatterns = []string{
	"/jobs", "/jobs/{id}/status", "/jobs/{id}/feed", "/jobs/{id}/refine",
	"/jobs/{id}/infer", "/jobs/{id}/infer/batch", "/jobs/{id}/infer/stream",
	"/metrics", "/admin/rounds", "/admin/snapshot", "/admin/start", "/admin/stop",
	"/admin/fleet", "/admin/quotas", "/admin/traces", "/admin/traces/{id}",
	"/admin/decisions", "/healthz", "/readyz",
}

// routeCounts scrapes h's GET /metrics and sums easeml_http_requests_total
// by route label.
func routeCounts(t testing.TB, h http.Handler) map[string]float64 {
	t.Helper()
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	counts := map[string]float64{}
	for sample, v := range ParseSamples(t, rw.Body.String()) {
		rest, ok := strings.CutPrefix(sample, `easeml_http_requests_total{route="`)
		if !ok {
			continue
		}
		counts[rest[:strings.Index(rest, `",code="`)]] += v
	}
	return counts
}

// routeLabel sends one request through h and returns the route label
// GET /metrics counts it under.
func routeLabel(t *testing.T, h http.Handler, method, path string) string {
	t.Helper()
	before := routeCounts(t, h)
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, path, nil))
	after := routeCounts(t, h)
	after["/metrics"]-- // the scrape that read before
	var moved []string
	for route, n := range after {
		if n != before[route] {
			moved = append(moved, route)
		}
	}
	if len(moved) != 1 {
		t.Fatalf("%s %s moved the counts of %q, want one route", method, path, moved)
	}
	return moved[0]
}

// unservedLabels lists the route labels on h's GET /metrics that are
// neither a served pattern nor "other".
func unservedLabels(t testing.TB, h http.Handler) []string {
	t.Helper()
	allowed := map[string]bool{"other": true}
	for _, p := range servedPatterns {
		allowed[p] = true
	}
	var bad []string
	for route := range routeCounts(t, h) {
		if !allowed[route] {
			bad = append(bad, route)
		}
	}
	return bad
}

// The route label is the pattern the router matched, so hostile or buggy
// clients cannot mint series: a served path reads its pattern (IDs are
// the pattern's {id}), and a path no route serves reads "other".
func TestRouteLabelCardinality(t *testing.T) {
	h := NewAPI(newTestScheduler(t)).Handler()
	cases := map[string]string{
		"/jobs":    "/jobs",
		"/metrics": "/metrics",
		"/healthz": "/healthz",
		"/readyz":  "/readyz",

		"/admin/rounds":    "/admin/rounds",
		"/admin/traces":    "/admin/traces",
		"/admin/decisions": "/admin/decisions",

		// IDs are the pattern's wildcard.
		"/jobs/job-17/feed":      "/jobs/{id}/feed",
		"/admin/traces/cafe0123": "/admin/traces/{id}",

		// Paths no route serves share one label.
		"/jobs/job-17":              "other",
		"/admin/traces/anything/at": "other",
		"/":                         "other",
		"/favicon.ico":              "other",
		"/admin/unknown":            "other",
		"/admin/metrics":            "other",
		"/jobs.txt":                 "other",
		"/..%2fadmin/quotas":        "other",
	}
	for path, want := range cases {
		if got := routeLabel(t, h, http.MethodGet, path); got != want {
			t.Errorf("GET %s counted under %q, want %q", path, got, want)
		}
	}

	// Sweep: a flood of unknown ops under /jobs/{id}/ and wrong methods on
	// every served route leave no label outside the route table.
	for i := 0; i < 1000; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, fmt.Sprintf("/jobs/x/op%d", i), nil))
	}
	for _, p := range servedPatterns {
		path := strings.ReplaceAll(p, "{id}", "x")
		for _, method := range []string{http.MethodPut, http.MethodDelete, "PATCH"} {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, path, nil))
		}
	}
	if bad := unservedLabels(t, h); len(bad) > 0 {
		t.Errorf("/metrics counts %d routes outside the route table, e.g. %q", len(bad), bad[:min(len(bad), 5)])
	}
}

// FuzzRoute: an arbitrary method and path never panic the API handler,
// never mint a route label outside the route table, and every 405 carries
// the JSON error envelope. The committed corpus is under
// testdata/fuzz/FuzzRoute.
func FuzzRoute(f *testing.F) {
	h := NewAPI(newTestScheduler(f)).Handler()
	f.Fuzz(func(t *testing.T, method, path string) {
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.Method, req.URL.Path, req.RequestURI = method, path, path
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code == http.StatusMethodNotAllowed {
			var body ErrorBody
			if err := json.Unmarshal(rw.Body.Bytes(), &body); err != nil || !strings.HasPrefix(body.Error, "use ") {
				t.Fatalf("%q %q: 405 body %q is not the JSON envelope", method, path, rw.Body)
			}
		}
		if bad := unservedLabels(t, h); len(bad) > 0 {
			t.Fatalf("%q %q: route labels outside the route table: %q", method, path, bad)
		}
	})
}
