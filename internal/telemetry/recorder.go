package telemetry

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// slot is one ring position: a span held by value under its own lock.
type slot struct {
	mu  sync.Mutex
	rec record
}

// spanRing is a bounded ring of spans by value: a writer claims a slot
// with one atomic add and copies its record in under the slot's lock; old
// spans are overwritten when the ring wraps. Readers (the rare
// /admin/traces scrape) copy slot by slot.
type spanRing struct {
	slots []slot
	head  atomic.Uint64
}

func newSpanRing(n int) *spanRing {
	if n < 1 {
		n = 1
	}
	return &spanRing{slots: make([]slot, n)}
}

// put copies rec into the next slot and returns the slot's index.
func (r *spanRing) put(rec *record) int {
	i := int((r.head.Add(1) - 1) % uint64(len(r.slots)))
	s := &r.slots[i]
	s.mu.Lock()
	s.rec = *rec
	s.rec.stored = true
	s.mu.Unlock()
	return i
}

// load copies slot i into rec when it holds a span of a trace want
// accepts.
func (r *spanRing) load(i int, want func(trace string) bool, rec *record) bool {
	s := &r.slots[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.rec.stored || !want(s.rec.trace) {
		return false
	}
	*rec = s.rec
	return true
}

// DefaultTraceBuffer is the flight recorder's default ring capacity
// (spans, per ring); the -trace-buffer flag overrides it.
const DefaultTraceBuffer = 4096

// maxFlaggedTraces bounds the tail-sampling working set: how many
// distinct interesting traces the retained ring tracks before the oldest
// flag is forgotten (its already-retained spans stay until overwritten).
const maxFlaggedTraces = 512

var (
	spansRecorded = Default().Counter("easeml_trace_spans_total",
		"Spans recorded into the flight recorder since process start.")
	spansRetained = Default().Counter("easeml_trace_spans_retained_total",
		"Spans copied into the tail-sampling retained ring (slow, failed, or bad-outcome traces).")
	importCuts = Default().Counter("easeml_trace_import_cuts_total",
		"Spans and parts of spans imported from other processes dropped or cut on import: spans of another trace, without an ID or past the sixteenth of a report; attributes past the eighth; keys, values, IDs, ops, process names and errors over 256 bytes.")
)

// Recorder is the in-process flight recorder: an always-on bounded ring
// of recent spans plus a second retained ring that tail-sampling feeds —
// a trace is retained whenever any of its spans errored, crossed the
// SlowOp threshold, or ended with a bad outcome (failed / preempted /
// expired / abandoned / conflict). When a trace is first flagged the main
// ring is swept so the spans that already landed there survive, and every
// later span of a flagged trace goes straight to the retained ring. Each
// ring is allocated when it first takes a span, so a process that records
// none (the library alone, the CLI) holds neither.
type Recorder struct {
	capacity atomic.Int64
	main     atomic.Pointer[spanRing]
	retained atomic.Pointer[spanRing]

	flagMu     sync.RWMutex
	flagged    map[string]struct{}
	flagFIFO   []string
	anyFlagged atomic.Bool
}

// NewRecorder creates a recorder with the given per-ring capacity.
func NewRecorder(capacity int) *Recorder {
	r := &Recorder{flagged: make(map[string]struct{})}
	r.SetCapacity(capacity)
	return r
}

var defaultRecorder = NewRecorder(DefaultTraceBuffer)

// DefaultRecorder is the process-global flight recorder Span.End records
// into and GET /admin/traces reads from.
func DefaultRecorder() *Recorder { return defaultRecorder }

// SetCapacity resizes both rings (discarding recorded spans); called once
// at startup from the -trace-buffer flag, before traffic.
func (r *Recorder) SetCapacity(n int) {
	if n < 1 {
		n = DefaultTraceBuffer
	}
	r.capacity.Store(int64(n))
	r.main.Store(nil)
	r.retained.Store(nil)
}

// Capacity returns the per-ring span capacity.
func (r *Recorder) Capacity() int { return int(r.capacity.Load()) }

// ring returns the ring p holds, allocating it on first use.
func (r *Recorder) ring(p *atomic.Pointer[spanRing]) *spanRing {
	if ring := p.Load(); ring != nil {
		return ring
	}
	p.CompareAndSwap(nil, newSpanRing(r.Capacity()))
	return p.Load()
}

// processName stamps spans recorded in this process, as they are read
// out of the recorder (imported worker spans keep their origin).
var processName atomic.Pointer[string]

// SetProcessName names this process in every span it records; call it
// once, at startup.
func SetProcessName(name string) { processName.Store(&name) }

// processOf is the Process a recorded span reads back with.
func processOf(rec *record) string {
	if p := rec.process(); p != "" {
		return p
	}
	if p := processName.Load(); p != nil {
		return *p
	}
	return ""
}

// badOutcome reports whether an outcome attribute value forces retention.
func badOutcome(o string) bool {
	switch o {
	case "failed", "preempted", "expired", "abandoned", "conflict", "error":
		return true
	}
	return false
}

// Record stores one finished span given in its serializable form.
func (r *Recorder) Record(data SpanData) {
	rec := recordOf(&data)
	r.record(&rec)
}

// maxImportLen bounds every string of a span imported from another
// process, and maxImportSpans how many spans one report may import.
const maxImportLen, maxImportSpans = 256, 16

// Import records the spans another process shipped for trace — a worker's
// run, inside its completion report — bounded so a lying sender cannot
// flood the recorder: it keeps only spans of trace that carry an ID, at
// most 16 of them, and stamps process on those that name none. Of each
// span it keeps at most 8 attributes (the smallest keys, so the cut is
// deterministic) and cuts every key, value, ID, op, process name and error
// to 256 bytes. Every span dropped, and every part dropped or cut, is
// counted in easeml_trace_import_cuts_total.
func (r *Recorder) Import(trace, process string, spans []SpanData) {
	kept := 0
	for _, sd := range spans {
		if sd.TraceID != trace || sd.SpanID == "" || kept == maxImportSpans {
			importCuts.Inc()
			continue
		}
		if sd.Process == "" {
			sd.Process = process
		}
		r.importSpan(sd)
		kept++
	}
}

// importSpan records one span of a report, bounded.
func (r *Recorder) importSpan(data SpanData) {
	cuts := 0
	bound := func(s string) string {
		if len(s) <= maxImportLen {
			return s
		}
		cuts++
		n := maxImportLen
		for n > 0 && !utf8.RuneStart(s[n]) {
			n--
		}
		return strings.Clone(s[:n]) // the rest of s is not kept alive
	}
	keys := make([]string, 0, maxAttrs)
	for k := range data.Attrs {
		if len(keys) < maxAttrs {
			keys = append(keys, k)
			continue
		}
		hi := 0
		for i := range keys {
			if keys[i] > keys[hi] {
				hi = i
			}
		}
		if k < keys[hi] {
			keys[hi] = k
		}
	}
	cuts += len(data.Attrs) - len(keys)
	attrs := make(map[string]string, len(keys))
	for _, k := range keys {
		attrs[bound(k)] = bound(data.Attrs[k])
	}
	data.Attrs = attrs
	data.TraceID, data.SpanID, data.ParentID = bound(data.TraceID), bound(data.SpanID), bound(data.ParentID)
	data.Op, data.Process, data.Err = bound(data.Op), bound(data.Process), bound(data.Err)
	importCuts.Add(uint64(cuts))
	r.Record(data)
}

// record stores one finished span. The hot path — ordinary span on an
// unflagged trace — is one atomic add, one slot lock and copy, and a
// probe of the flagged set that takes no exclusive lock.
func (r *Recorder) record(rec *record) {
	main := r.ring(&r.main)
	at := main.put(rec)
	spansRecorded.Inc()

	interesting := rec.err() != "" || badOutcome(rec.attr("outcome"))
	if !interesting {
		if t := SlowOpThreshold(); t > 0 && time.Duration(rec.durNS) > t {
			interesting = true
		}
	}
	already := r.isFlagged(rec.trace)
	if !already && !interesting {
		return
	}
	first := !already && r.flag(rec.trace)
	ret := r.ring(&r.retained)
	ret.put(rec)
	spansRetained.Inc()
	if !first {
		return
	}
	// First flag for this trace: sweep the main ring in place so the
	// spans that landed before the interesting one survive ring wrap.
	sameTrace := func(t string) bool { return t == rec.trace }
	var prev record
	for i := range main.slots {
		if i != at && main.load(i, sameTrace, &prev) {
			ret.put(&prev)
			spansRetained.Inc()
		}
	}
}

// isFlagged reports whether trace is flagged for retention, under the
// read lock (and none at all until some trace is flagged).
func (r *Recorder) isFlagged(trace string) bool {
	if !r.anyFlagged.Load() {
		return false
	}
	r.flagMu.RLock()
	_, ok := r.flagged[trace]
	r.flagMu.RUnlock()
	return ok
}

// flag marks trace for retention and reports whether this call did (false
// when a concurrent record flagged it first).
func (r *Recorder) flag(trace string) bool {
	r.flagMu.Lock()
	defer r.flagMu.Unlock()
	if _, ok := r.flagged[trace]; ok {
		return false
	}
	r.flagged[trace] = struct{}{}
	r.flagFIFO = append(r.flagFIFO, trace)
	if len(r.flagFIFO) > maxFlaggedTraces {
		delete(r.flagged, r.flagFIFO[0])
		r.flagFIFO = r.flagFIFO[1:]
	}
	r.anyFlagged.Store(true)
	return true
}

// TraceFilter narrows a Traces listing. Zero values match everything.
type TraceFilter struct {
	Tenant      string
	Job         string
	Outcome     string
	MinDuration time.Duration
	Limit       int
}

// TraceSummary is one row of the GET /admin/traces listing.
type TraceSummary struct {
	TraceID    string   `json:"trace"`
	RootOp     string   `json:"root_op,omitempty"`
	Spans      int      `json:"spans"`
	StartNS    int64    `json:"start_unix_nano"`
	DurationNS int64    `json:"duration_ns"`
	Outcome    string   `json:"outcome,omitempty"`
	Error      string   `json:"error,omitempty"`
	Tenant     string   `json:"tenant,omitempty"`
	Job        string   `json:"job,omitempty"`
	Processes  []string `json:"processes,omitempty"`
}

// spans copies out every stored span of the traces want accepts, both rings
// merged (retained first), deduplicated by (trace, span) with the
// retained copy winning.
func (r *Recorder) spans(want func(trace string) bool) map[string][]record {
	byTrace := make(map[string][]record)
	seen := make(map[[2]string]bool)
	var rec record
	for _, ring := range []*spanRing{r.retained.Load(), r.main.Load()} {
		if ring == nil {
			continue
		}
		for i := range ring.slots {
			if !ring.load(i, want, &rec) {
				continue
			}
			key := [2]string{rec.trace, rec.id.spanID()}
			if seen[key] {
				continue
			}
			seen[key] = true
			byTrace[rec.trace] = append(byTrace[rec.trace], rec)
		}
	}
	return byTrace
}

// summarize folds one trace's spans into a listing row.
func summarize(trace string, spans []record) TraceSummary {
	sum := TraceSummary{TraceID: trace, Spans: len(spans)}
	var minStart, maxEnd int64
	procs := map[string]bool{}
	var root *record
	for i := range spans {
		sd := &spans[i]
		if minStart == 0 || sd.startNS < minStart {
			minStart = sd.startNS
		}
		if end := sd.startNS + sd.durNS; end > maxEnd {
			maxEnd = end
		}
		if p := processOf(sd); p != "" {
			procs[p] = true
		}
		if sd.parent == stringValue("") && (root == nil || sd.startNS < root.startNS) {
			root = sd
		}
		if sum.Error == "" && sd.err() != "" {
			sum.Error = sd.err()
		}
		if o := sd.attr("outcome"); o != "" {
			sum.Outcome = o
		}
		if t := sd.attr("tenant"); t != "" {
			sum.Tenant = t
		}
		if j := sd.attr("job"); j != "" {
			sum.Job = j
		}
	}
	if root != nil {
		sum.RootOp = root.op
		if o := root.attr("outcome"); o != "" {
			sum.Outcome = o
		}
	}
	sum.StartNS = minStart
	sum.DurationNS = maxEnd - minStart
	for p := range procs {
		sum.Processes = append(sum.Processes, p)
	}
	sort.Strings(sum.Processes)
	return sum
}

// Traces lists recorded traces newest-first, filtered.
func (r *Recorder) Traces(f TraceFilter) []TraceSummary {
	var out []TraceSummary
	for trace, spans := range r.spans(func(string) bool { return true }) {
		sum := summarize(trace, spans)
		if f.Tenant != "" && sum.Tenant != f.Tenant {
			continue
		}
		if f.Job != "" && sum.Job != f.Job {
			continue
		}
		if f.Outcome != "" && sum.Outcome != f.Outcome {
			continue
		}
		if f.MinDuration > 0 && time.Duration(sum.DurationNS) < f.MinDuration {
			continue
		}
		out = append(out, sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartNS > out[j].StartNS })
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out
}

// Trace returns every recorded span of one trace, oldest first. The
// second return reports whether the trace is known at all.
func (r *Recorder) Trace(id string) ([]SpanData, bool) {
	spans := r.spans(func(t string) bool { return t == id })[id]
	if len(spans) == 0 {
		return nil, false
	}
	out := make([]SpanData, len(spans))
	for i := range spans {
		out[i] = spans[i].data()
		out[i].Process = processOf(&spans[i])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out, true
}

// SpanNode is one node of the assembled span tree served by
// GET /admin/traces/{id}.
type SpanNode struct {
	SpanData
	Children []*SpanNode `json:"children,omitempty"`
}

// BuildSpanTree assembles flat spans into parent/child trees. Spans whose
// parent is missing (overwritten in the ring, or remote and unshipped)
// surface as roots, so a partial recording still renders.
func BuildSpanTree(spans []SpanData) []*SpanNode {
	nodes := make(map[string]*SpanNode, len(spans))
	order := make([]*SpanNode, 0, len(spans))
	for _, sd := range spans {
		n := &SpanNode{SpanData: sd}
		nodes[sd.SpanID] = n
		order = append(order, n)
	}
	var roots []*SpanNode
	for _, n := range order {
		if p, ok := nodes[n.ParentID]; ok && n.ParentID != "" && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}
