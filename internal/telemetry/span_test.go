package telemetry

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// mkSpan builds a finished SpanData for direct Recorder.Record tests.
func mkSpan(trace, span, parent, op string, attrs map[string]string) SpanData {
	return SpanData{
		TraceID: trace, SpanID: span, ParentID: parent, Op: op,
		StartNS: 1_000_000, DurationNS: 1000, Attrs: attrs,
	}
}

func TestSpanOpRegistryAndContract(t *testing.T) {
	name := SpanOp("span_test_op")
	found := false
	for _, op := range RegisteredSpanOps() {
		if op == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("RegisteredSpanOps missing %q: %v", name, RegisteredSpanOps())
	}
	for _, bad := range []string{"Not-Snake", "UPPER", "1leading", "spa ce", ""} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SpanOp(%q) did not panic", bad)
				}
			}()
			SpanOp(bad)
		}()
	}
}

func TestSpanLifecycle(t *testing.T) {
	root := SpanAt(NewTraceID(), "", "span_test_root", time.Now())
	trace := root.Data().TraceID
	child := root.Child("span_test_child", time.Now())
	if child.Data().ParentID != root.ID() || len(root.ID()) != 8 {
		t.Fatalf("child parent = %q, want root %q", child.Data().ParentID, root.ID())
	}
	if child.Data().TraceID != trace {
		t.Fatalf("child trace %q != root trace %q", child.Data().TraceID, trace)
	}

	root.SetAttr("k", "v")
	root.Fail(nil) // nil error is a no-op
	if d := root.Data(); d.Attrs["k"] != "v" || d.Err != "" {
		t.Fatalf("attrs/err after SetAttr+Fail(nil): %+v", d)
	}
	root.Fail(fmt.Errorf("boom"))
	start := root.Data().Start()
	root.EndAt(start.Add(5 * time.Millisecond))
	spans, _ := DefaultRecorder().Trace(trace)
	if len(spans) != 1 || spans[0].Duration() != 5*time.Millisecond || spans[0].Err != "boom" ||
		spans[0].Attrs["k"] != "v" || spans[0].ParentID != "" {
		t.Fatalf("recorded %+v, want the root alone, 5ms, errored", spans)
	}

	// EndAt before start clamps to zero rather than a negative duration.
	s := SpanAt(NewTraceID(), "", "span_test_root", time.Now())
	s.EndAt(time.Now().Add(-time.Second))
	if s.Data().DurationNS != 0 {
		t.Fatalf("negative duration not clamped: %d", s.Data().DurationNS)
	}

	// The zero Span has no trace: no ID, and its children record nothing.
	var zero Span
	before := spansRecorded.Value()
	z := zero.Child("span_test_child", time.Now())
	z.End()
	zero.End()
	if zero.ID() != "" || z.ID() != "" || spansRecorded.Value() != before {
		t.Fatalf("zero span: ID %q, child ID %q, %d spans recorded", zero.ID(), z.ID(), spansRecorded.Value()-before)
	}
}

func TestRecorderWrapAndTailSampling(t *testing.T) {
	r := NewRecorder(4)
	if r.Capacity() != 4 {
		t.Fatalf("capacity = %d, want 4", r.Capacity())
	}
	// A boring span on trace B lands in the main ring only.
	r.Record(mkSpan("bbbbbbbbbbbbbbbb", "b1", "", "span_test_root", nil))
	// A failed span flags trace B: the sweep rescues b1 into the retained
	// ring even though only the main ring held it so far.
	r.Record(SpanData{TraceID: "bbbbbbbbbbbbbbbb", SpanID: "b2", Op: "span_test_child",
		StartNS: 2_000_000, DurationNS: 1, Err: "exploded"})
	// Boring traffic wraps the 4-slot main ring several times over.
	for i := 0; i < 16; i++ {
		r.Record(mkSpan("aaaaaaaaaaaaaaaa", fmt.Sprintf("a%d", i), "", "span_test_root", nil))
	}
	spans, ok := r.Trace("bbbbbbbbbbbbbbbb")
	if !ok || len(spans) != 2 {
		t.Fatalf("flagged trace lost to ring wrap: ok=%v spans=%v", ok, spans)
	}
	if spans[0].SpanID != "b1" || spans[1].SpanID != "b2" {
		t.Fatalf("trace spans out of order: %v", spans)
	}
	// A later span of the already-flagged trace goes straight to retained.
	r.Record(mkSpan("bbbbbbbbbbbbbbbb", "b3", "b2", "span_test_child", nil))
	if spans, _ := r.Trace("bbbbbbbbbbbbbbbb"); len(spans) != 3 {
		t.Fatalf("follow-up span of flagged trace not retained: %v", spans)
	}
	// The boring trace kept only what survives 4 slots.
	if spans, ok := r.Trace("aaaaaaaaaaaaaaaa"); !ok || len(spans) > 4 {
		t.Fatalf("unflagged trace: ok=%v spans=%d, want <=4 survivors", ok, len(spans))
	}
}

func TestRecorderRetainsBadOutcomesAndSlowSpans(t *testing.T) {
	r := NewRecorder(8)
	for _, outcome := range []string{"failed", "preempted", "expired", "abandoned", "conflict", "error"} {
		trace := (outcome + strings.Repeat("0", 16))[:16]
		r.Record(mkSpan(trace, "s-"+outcome, "", "span_test_root", map[string]string{"outcome": outcome}))
	}
	// Boring traffic wraps the 8-slot main ring; the retained ring still
	// holds every bad-outcome trace.
	for i := 0; i < 16; i++ {
		r.Record(mkSpan("0123456789abcdef", fmt.Sprintf("w%d", i), "", "span_test_root", nil))
	}
	for _, outcome := range []string{"failed", "preempted", "expired", "abandoned", "conflict", "error"} {
		trace := (outcome + strings.Repeat("0", 16))[:16]
		if _, ok := r.Trace(trace); !ok {
			t.Errorf("bad-outcome %q trace evicted", outcome)
		}
	}
	// "completed" and "released" are healthy outcomes: not retained.
	r2 := NewRecorder(2)
	r2.Record(mkSpan("cccccccccccccccc", "c1", "", "span_test_root", map[string]string{"outcome": "completed"}))
	r2.Record(mkSpan("dddddddddddddddd", "d1", "", "span_test_root", map[string]string{"outcome": "released"}))
	r2.Record(mkSpan("eeeeeeeeeeeeeeee", "e1", "", "span_test_root", nil))
	r2.Record(mkSpan("ffffffffffffffff", "f1", "", "span_test_root", nil))
	if _, ok := r2.Trace("cccccccccccccccc"); ok {
		t.Error("healthy completed trace survived ring wrap — was it retained?")
	}

	// Slow spans retain their trace once the slow-op threshold is armed.
	oldT := SlowOpThreshold()
	defer SetSlowOpThreshold(oldT)
	SetSlowOpThreshold(time.Millisecond)
	r3 := NewRecorder(2)
	slow := mkSpan("1111111111111111", "s1", "", "span_test_root", nil)
	slow.DurationNS = int64(5 * time.Millisecond)
	r3.Record(slow)
	r3.Record(mkSpan("2222222222222222", "x1", "", "span_test_root", nil))
	r3.Record(mkSpan("2222222222222222", "x2", "", "span_test_root", nil))
	if _, ok := r3.Trace("1111111111111111"); !ok {
		t.Error("slow trace evicted despite tail sampling")
	}
}

func TestRecorderSetCapacityResets(t *testing.T) {
	r := NewRecorder(8)
	r.Record(mkSpan("abababababababab", "s1", "", "span_test_root", nil))
	r.SetCapacity(16)
	if r.Capacity() != 16 {
		t.Fatalf("capacity = %d, want 16", r.Capacity())
	}
	if _, ok := r.Trace("abababababababab"); ok {
		t.Fatal("SetCapacity kept old spans; rings must be discarded")
	}
	r.SetCapacity(0)
	if r.Capacity() != DefaultTraceBuffer {
		t.Fatalf("SetCapacity(0) gave %d, want default %d", r.Capacity(), DefaultTraceBuffer)
	}
}

func TestTracesListingAndFilters(t *testing.T) {
	r := NewRecorder(64)
	r.Record(SpanData{TraceID: "aaaa000000000000", SpanID: "ra", Op: "span_test_root",
		StartNS: 1_000, DurationNS: int64(2 * time.Millisecond),
		Attrs: map[string]string{"tenant": "alice", "job": "j1", "outcome": "completed"}})
	r.Record(SpanData{TraceID: "aaaa000000000000", SpanID: "ca", ParentID: "ra", Op: "span_test_child",
		StartNS: 1_500, DurationNS: 10})
	r.Record(SpanData{TraceID: "bbbb000000000000", SpanID: "rb", Op: "span_test_root",
		StartNS: 2_000, DurationNS: int64(50 * time.Millisecond),
		Attrs: map[string]string{"tenant": "bob", "job": "j2", "outcome": "failed"}})

	all := r.Traces(TraceFilter{})
	if len(all) != 2 {
		t.Fatalf("unfiltered listing has %d traces, want 2: %+v", len(all), all)
	}
	if all[0].TraceID != "bbbb000000000000" {
		t.Fatalf("listing not newest-first: %+v", all)
	}
	a := all[1]
	if a.Spans != 2 || a.RootOp != "span_test_root" || a.Tenant != "alice" || a.Job != "j1" || a.Outcome != "completed" {
		t.Fatalf("summary fields wrong: %+v", a)
	}
	if got := r.Traces(TraceFilter{Tenant: "bob"}); len(got) != 1 || got[0].TraceID != "bbbb000000000000" {
		t.Fatalf("tenant filter: %+v", got)
	}
	if got := r.Traces(TraceFilter{Job: "j1"}); len(got) != 1 || got[0].TraceID != "aaaa000000000000" {
		t.Fatalf("job filter: %+v", got)
	}
	if got := r.Traces(TraceFilter{Outcome: "failed"}); len(got) != 1 || got[0].TraceID != "bbbb000000000000" {
		t.Fatalf("outcome filter: %+v", got)
	}
	if got := r.Traces(TraceFilter{MinDuration: 10 * time.Millisecond}); len(got) != 1 || got[0].TraceID != "bbbb000000000000" {
		t.Fatalf("min-duration filter: %+v", got)
	}
	if got := r.Traces(TraceFilter{Limit: 1}); len(got) != 1 {
		t.Fatalf("limit ignored: %+v", got)
	}
	if _, ok := r.Trace("feedfeedfeedfeed"); ok {
		t.Fatal("unknown trace reported as known")
	}
}

func TestBuildSpanTree(t *testing.T) {
	spans := []SpanData{
		{TraceID: "t", SpanID: "root", Op: "span_test_root"},
		{TraceID: "t", SpanID: "c1", ParentID: "root", Op: "span_test_child"},
		{TraceID: "t", SpanID: "c2", ParentID: "c1", Op: "span_test_child"},
		// Parent overwritten in the ring (or never shipped): surfaces as a
		// second root instead of vanishing.
		{TraceID: "t", SpanID: "orphan", ParentID: "gone", Op: "span_test_child"},
	}
	roots := BuildSpanTree(spans)
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2 (root + orphan): %+v", len(roots), roots)
	}
	if roots[0].SpanID != "root" || len(roots[0].Children) != 1 {
		t.Fatalf("root node wrong: %+v", roots[0])
	}
	if roots[0].Children[0].SpanID != "c1" || len(roots[0].Children[0].Children) != 1 {
		t.Fatalf("nesting wrong: %+v", roots[0].Children[0])
	}
	if roots[1].SpanID != "orphan" {
		t.Fatalf("orphan not surfaced as root: %+v", roots[1])
	}
	// A self-parented span must not recurse into itself.
	weird := BuildSpanTree([]SpanData{{TraceID: "t", SpanID: "s", ParentID: "s", Op: "span_test_root"}})
	if len(weird) != 1 || len(weird[0].Children) != 0 {
		t.Fatalf("self-parented span mishandled: %+v", weird)
	}
}

func TestRecordStampsProcessName(t *testing.T) {
	old := processName.Load()
	defer processName.Store(old)
	SetProcessName("span-test-proc")
	r := NewRecorder(4)
	r.Record(mkSpan("9999999999999999", "p1", "", "span_test_root", nil))
	r.Record(SpanData{TraceID: "9999999999999999", SpanID: "p2", Op: "span_test_child",
		StartNS: 1, DurationNS: 1, Process: "worker:w0"})
	spans, _ := r.Trace("9999999999999999")
	byID := map[string]SpanData{}
	for _, sd := range spans {
		byID[sd.SpanID] = sd
	}
	if byID["p1"].Process != "span-test-proc" {
		t.Fatalf("local span process = %q, want stamped name", byID["p1"].Process)
	}
	if byID["p2"].Process != "worker:w0" {
		t.Fatalf("imported span process overwritten: %q", byID["p2"].Process)
	}
}
