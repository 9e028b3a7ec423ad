package fleet

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/telemetry"
)

// A lying worker's completion report is imported bounded and the settle
// still succeeds: its run span, with 10,000 attributes, one of them 1 MiB,
// is cut to 8 attributes of at most 256 bytes; a span of another trace, a
// span with no ID and the spans past the sixteenth are dropped. Every cut
// and every dropped span is counted.
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
	const foreign = "f0f0f0f0f0f0f0f0"
	spans := []telemetry.SpanData{
		{TraceID: wl.Trace, SpanID: "liar0001", ParentID: wl.Span, Op: "worker_run", Attrs: attrs},
		{TraceID: foreign, SpanID: "foreign1", ParentID: wl.Span, Op: "worker_run"},
		{TraceID: wl.Trace, ParentID: wl.Span, Op: "worker_run", Attrs: map[string]string{"liar": "no-id"}},
	}
	for k := 0; k < 17; k++ { // 15 fill the cap of 16, two go past it
		spans = append(spans, telemetry.SpanData{TraceID: wl.Trace, SpanID: fmt.Sprintf("fill%04d", k),
			ParentID: wl.Span, Op: "worker_run"})
	}
	const dropped = 1 + 1 + 2

	cuts := telemetry.Default().Counter("easeml_trace_import_cuts_total", "")
	before := cuts.Value()
	cr, err := coord.Complete(CompleteRequest{WorkerID: reg.WorkerID, LeaseID: wl.LeaseID, Accuracy: 0.7, Cost: 1,
		Spans: spans})
	if err != nil || cr.Settled != server.SettledCompleted {
		t.Fatalf("complete settled %q, %v; want %q", cr.Settled, err, server.SettledCompleted)
	}
	if got, want := cuts.Value()-before, uint64(10_000-8+1+dropped); got != want {
		t.Errorf("counted %d cuts, want %d (attributes dropped, the cut value and %d dropped spans)", got, want, dropped)
	}
	if got, ok := telemetry.DefaultRecorder().Trace(foreign); ok {
		t.Errorf("span of another trace imported: %+v", got)
	}
	got, _ := telemetry.DefaultRecorder().Trace(wl.Trace)
	var run *telemetry.SpanData
	fills := 0
	for i := range got {
		switch sd := &got[i]; {
		case sd.SpanID == "liar0001":
			run = sd
		case strings.HasPrefix(sd.SpanID, "fill"):
			fills++
		case sd.SpanID == "" || sd.Attrs["liar"] != "":
			t.Errorf("span with no ID imported: %+v", *sd)
		}
	}
	if fills != 15 {
		t.Errorf("imported %d filler spans, want the 15 under the cap of 16", fills)
	}
	if run == nil {
		t.Fatalf("worker span not imported; trace holds %+v", got)
	}
	if len(run.Attrs) != 8 || run.Attrs["k00000"] != strings.Repeat("x", 256) || run.Attrs["k00007"] != "v" {
		t.Errorf("imported %d attrs (k00000 %d bytes), want k00000..k00007 with k00000 cut to 256",
			len(run.Attrs), len(run.Attrs["k00000"]))
	}
	if run.Process != "worker:"+reg.WorkerID {
		t.Errorf("worker span process %q, want worker:%s", run.Process, reg.WorkerID)
	}
}
