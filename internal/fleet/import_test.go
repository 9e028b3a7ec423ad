package fleet

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/telemetry"
)

// A lying worker's completion report — one span with 10,000 attributes,
// one of them 1 MiB — is imported cut to 8 attributes of at most 256
// bytes, the cuts are counted, and the settle still succeeds.
func TestImportedSpanIsBounded(t *testing.T) {
	sc := newTestScheduler(t)
	if _, err := sc.Submit("liar", tsProgram); err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(sc, CoordinatorConfig{Seed: fleetSeed})
	reg := coord.Register(RegisterRequest{Name: "liar", Devices: 1})
	lr, err := coord.Lease(LeaseRequest{WorkerID: reg.WorkerID, Max: 1})
	if err != nil || len(lr.Leases) != 1 {
		t.Fatalf("lease: %+v, %v", lr.Leases, err)
	}
	wl := lr.Leases[0]
	attrs := make(map[string]string, 10_000)
	for k := 0; k < 10_000; k++ {
		attrs[fmt.Sprintf("k%05d", k)] = "v"
	}
	attrs["k00000"] = strings.Repeat("x", 1<<20)

	cuts := telemetry.Default().Counter("easeml_trace_import_cuts_total", "")
	before := cuts.Value()
	cr, err := coord.Complete(CompleteRequest{WorkerID: reg.WorkerID, LeaseID: wl.LeaseID, Accuracy: 0.7, Cost: 1,
		Spans: []telemetry.SpanData{{TraceID: wl.Trace, SpanID: "liar0001", ParentID: wl.Span, Op: "worker_run", Attrs: attrs}}})
	if err != nil || cr.Settled != server.SettledCompleted {
		t.Fatalf("complete settled %q, %v; want %q", cr.Settled, err, server.SettledCompleted)
	}
	if got, want := cuts.Value()-before, uint64(10_000-8+1); got != want {
		t.Errorf("counted %d cuts, want %d (attributes dropped plus the cut value)", got, want)
	}
	spans, _ := telemetry.DefaultRecorder().Trace(wl.Trace)
	var run *telemetry.SpanData
	for i := range spans {
		if spans[i].SpanID == "liar0001" {
			run = &spans[i]
		}
	}
	if run == nil {
		t.Fatalf("worker span not imported; trace holds %+v", spans)
	}
	if len(run.Attrs) != 8 || run.Attrs["k00000"] != strings.Repeat("x", 256) || run.Attrs["k00007"] != "v" {
		t.Errorf("imported %d attrs (k00000 %d bytes), want k00000..k00007 with k00000 cut to 256",
			len(run.Attrs), len(run.Attrs["k00000"]))
	}
}
