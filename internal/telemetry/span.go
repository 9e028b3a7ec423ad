package telemetry

import (
	"context"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"time"
)

// SpanData is the serializable form of one span: what /admin/traces
// serves and what crosses the wire when a worker ships its spans back to
// the coordinator inside a CompleteRequest. Times are unix nanoseconds so
// the JSON form is stable across processes and clock formats. The flight
// recorder holds spans by value in its own form and builds a SpanData
// only when read.
type SpanData struct {
	TraceID    string            `json:"trace"`
	SpanID     string            `json:"span"`
	ParentID   string            `json:"parent,omitempty"`
	Op         string            `json:"op"`
	Process    string            `json:"process,omitempty"`
	StartNS    int64             `json:"start_unix_nano"`
	DurationNS int64             `json:"duration_ns"`
	Err        string            `json:"error,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// Start returns the span's start time.
func (d SpanData) Start() time.Time { return time.Unix(0, d.StartNS) }

// Duration returns the span's duration.
func (d SpanData) Duration() time.Duration { return time.Duration(d.DurationNS) }

// Span is a live (not yet ended) span. It is safe for concurrent use;
// End is idempotent and hands the span to the flight recorder. A span
// costs two allocations, itself and its ID (a string, so children and
// remote workers can parent to it); its attributes are held inline.
type Span struct {
	mu   sync.Mutex
	rec  record
	done bool
}

// spanOpRE is the operation-name contract: lower snake_case, statically
// enforced by tools/metriclint over every SpanOp declaration in the tree.
var spanOpRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

var (
	spanOpMu sync.Mutex
	spanOps  = map[string]struct{}{}
)

// SpanOp registers a span operation name and returns it. Packages declare
// their operations as package-level vars (`var opPick = telemetry.SpanOp(
// "pick_select")`), which gives metriclint a single static declaration
// site to lint (snake_case, unique across the tree) and the runtime a
// registered set to validate queries against. A malformed name is a
// programming error and panics at init.
func SpanOp(name string) string {
	if !spanOpRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: span op %q is not snake_case", name))
	}
	spanOpMu.Lock()
	defer spanOpMu.Unlock()
	spanOps[name] = struct{}{}
	return name
}

// RegisteredSpanOps returns the sorted set of operation names declared via
// SpanOp — the registered set the lease span tree is validated against.
func RegisteredSpanOps() []string {
	spanOpMu.Lock()
	defer spanOpMu.Unlock()
	ops := make([]string, 0, len(spanOps))
	for op := range spanOps {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	return ops
}

type spanCtxKey struct{}

// StartSpan begins a span under the trace carried by ctx (minting a trace
// ID if absent), parented to the span already in ctx if any, and returns
// a context carrying the new span. This is the HTTP-middleware / handler
// entry point; scheduler internals that have no context use NewSpanAt.
func StartSpan(ctx context.Context, op string) (context.Context, *Span) {
	ctx, trace := EnsureTraceID(ctx)
	parent := ""
	if p := SpanFrom(ctx); p != nil {
		parent = p.ID()
	}
	s := NewSpanAt(trace, parent, op, time.Now())
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// SpanFrom returns the span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// NewSpanAt creates a detached span with an explicit start time, for a
// span that outlives the function that opens it (a lease's root) or that
// children parent to. A span that starts and ends in one function is a
// Stage, which allocates nothing.
func NewSpanAt(trace, parent, op string, start time.Time) *Span {
	return &Span{rec: record{trace: trace, parent: parent, op: op,
		id: stringValue(NewSpanID()), startNS: start.UnixNano()}}
}

// ID returns the span's ID (stable from creation, safe to ship over the
// wire so remote children can parent to it).
func (s *Span) ID() string { return s.rec.id.spanID() }

// TraceID returns the trace the span belongs to.
func (s *Span) TraceID() string { return s.rec.trace }

// SetAttr attaches a key/value attribute. No-op after End.
func (s *Span) SetAttr(k, v string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done {
		s.rec.setAttr(k, stringValue(v))
	}
}

// Fail marks the span as errored. No-op after End or on a nil error.
func (s *Span) Fail(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done {
		s.rec.ext().err = err.Error()
	}
}

// Data snapshots the span's current state — how a worker serializes its
// spans into a CompleteRequest after ending them locally.
func (s *Span) Data() SpanData {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec.data()
}

// End closes the span at time.Now and records it into the default flight
// recorder. Idempotent: only the first End records.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt closes the span at an explicit end time (retroactive stage spans
// end at the same instant the matching histogram observes).
func (s *Span) EndAt(end time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return
	}
	s.done = true
	s.rec.end(end)
	DefaultRecorder().record(&s.rec)
}
