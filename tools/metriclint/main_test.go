package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLintSourceFindsViolations(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "a.go", `package a

var (
	ok  = telemetry.Default().Counter("easeml_good_total", "fine")
	bad = telemetry.Default().Gauge("Easeml-Bad", "not snake case")
)
`)
	writeFile(t, dir, "b.go", `package a

var dup = telemetry.Default().Counter("easeml_good_total", "claimed twice")

func render(w io.Writer) {
	telemetry.WriteMetricHeader(w, "easeml_dynamic", "scrape-time family", "gauge")
}
`)
	// _test.go files register private names into fresh registries and are
	// out of scope.
	writeFile(t, dir, "a_test.go", `package a

var testOnly = reg.Counter("NOT_CHECKED", "test registry")
`)

	problems, err := lintSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(problems, "\n")
	if !strings.Contains(joined, `"Easeml-Bad" is not lower snake_case`) {
		t.Errorf("missing snake_case violation in:\n%s", joined)
	}
	if !strings.Contains(joined, `"easeml_good_total" already registered`) {
		t.Errorf("missing duplicate-name violation in:\n%s", joined)
	}
	if strings.Contains(joined, "NOT_CHECKED") {
		t.Errorf("lint reached into _test.go files:\n%s", joined)
	}
	if len(problems) != 2 {
		t.Errorf("got %d problems, want 2:\n%s", len(problems), joined)
	}
}

func TestLintSourceSpanOps(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "a.go", `package a

var (
	opRun  = telemetry.SpanOp("worker_run")
	opBad  = telemetry.SpanOp("Worker-Run")
	metric = telemetry.Default().Counter("worker_run", "shares the word with the span op: fine")
)
`)
	writeFile(t, dir, "b.go", `package a

var opDup = telemetry.SpanOp("worker_run")
`)
	problems, err := lintSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(problems, "\n")
	if !strings.Contains(joined, `span op "Worker-Run" is not lower snake_case`) {
		t.Errorf("missing span-op snake_case violation in:\n%s", joined)
	}
	if !strings.Contains(joined, `span op "worker_run" already registered`) {
		t.Errorf("missing duplicate span-op violation in:\n%s", joined)
	}
	if len(problems) != 2 {
		t.Errorf("got %d problems, want 2 (metric/span namespaces must not collide):\n%s", len(problems), joined)
	}
}

func TestLintSourceCleanTree(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "a.go", `package a

var c = telemetry.Default().CounterVec("easeml_things_total", "fine", "kind")
`)
	problems, err := lintSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Errorf("clean tree produced problems: %v", problems)
	}
}

func TestLintExposition(t *testing.T) {
	good := `# HELP easeml_jobs Jobs known.
# TYPE easeml_jobs gauge
easeml_jobs 3
# HELP easeml_wal_append_seconds Append latency.
# TYPE easeml_wal_append_seconds histogram
easeml_wal_append_seconds_bucket{le="0.001"} 10
easeml_wal_append_seconds_bucket{le="+Inf"} 12
easeml_wal_append_seconds_sum 0.5
easeml_wal_append_seconds_count 12
# HELP easeml_http_requests_total Requests.
# TYPE easeml_http_requests_total counter
easeml_http_requests_total{route="/jobs",code="200"} 7
`
	if problems := lintExposition(strings.NewReader(good)); len(problems) != 0 {
		t.Errorf("valid exposition rejected: %v", problems)
	}

	for name, bad := range map[string]string{
		"garbage line":      "# TYPE easeml_x gauge\neaseml_x 1\nthis is not a sample\n",
		"sample sans TYPE":  "easeml_orphan 4\n",
		"malformed TYPE":    "# TYPE easeml_x wibble\neaseml_x 1\n",
		"duplicate TYPE":    "# TYPE easeml_x gauge\n# TYPE easeml_x gauge\neaseml_x 1\n",
		"empty exposition":  "\n",
		"unquoted label":    "# TYPE easeml_x gauge\neaseml_x{a=b} 1\n",
		"non-numeric value": "# TYPE easeml_x gauge\neaseml_x one\n",
	} {
		if problems := lintExposition(strings.NewReader(bad)); len(problems) == 0 {
			t.Errorf("%s: accepted invalid exposition %q", name, bad)
		}
	}
}

// Two families whose samples interleave — both headers first, then the
// samples alternating — are rejected; the same samples grouped pass.
func TestLintExpositionInterleavedFamilies(t *testing.T) {
	interleaved := `# HELP easeml_tenant_active_jobs Jobs.
# TYPE easeml_tenant_active_jobs gauge
# HELP easeml_tenant_cost_used Cost.
# TYPE easeml_tenant_cost_used gauge
easeml_tenant_active_jobs{tenant="alice"} 1
easeml_tenant_cost_used{tenant="alice"} 2.5
easeml_tenant_active_jobs{tenant="bob"} 1
easeml_tenant_cost_used{tenant="bob"} 0.5
`
	problems := lintExposition(strings.NewReader(interleaved))
	if len(problems) != 2 {
		t.Fatalf("interleaved exposition: got %d problems, want 2 (both active_jobs samples):\n%s",
			len(problems), strings.Join(problems, "\n"))
	}
	for _, p := range problems {
		if !strings.Contains(p, "easeml_tenant_active_jobs is not grouped") {
			t.Errorf("unexpected problem: %s", p)
		}
	}

	grouped := `# TYPE easeml_tenant_active_jobs gauge
easeml_tenant_active_jobs{tenant="alice"} 1
easeml_tenant_active_jobs{tenant="bob"} 1
# TYPE easeml_tenant_cost_used gauge
easeml_tenant_cost_used{tenant="alice"} 2.5
easeml_tenant_cost_used{tenant="bob"} 0.5
# TYPE easeml_wal_append_seconds histogram
easeml_wal_append_seconds_bucket{le="+Inf"} 12
easeml_wal_append_seconds_sum 0.5
easeml_wal_append_seconds_count 12
`
	if problems := lintExposition(strings.NewReader(grouped)); len(problems) != 0 {
		t.Errorf("grouped exposition rejected: %v", problems)
	}
}
