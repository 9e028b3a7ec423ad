package telemetry

import (
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
