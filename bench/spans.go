package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one boundary call recorded by the harness: a name whose prefix up
// to the first dot is the layer, start/end in nanoseconds since the tracer
// was created, the span that caused it (0 = none) and the id of the
// operation the spans of one request share.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run stays span-free: every call site
// goes through methods that are no-ops on nil.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int32, op uint64) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record stores an already-timed span.
func (t *tracer) record(name string, parent int32, op uint64, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return id
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerOf is the span-name prefix up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children are unioned, and
// clipped to the parent). Unclosed spans count as zero-length.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		if s.End <= s.Start {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			cs, ce := spans[k].Start, spans[k].End
			if cs < cursor {
				cs = cursor
			}
			if ce > s.End {
				ce = s.End
			}
			if ce > cs {
				covered += ce - cs
				cursor = ce
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	Layer  string
	Spans  int
	SelfMS float64
	WallMS float64
}

// layerTable aggregates self time and span time by layer.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	agg := map[string]*layerRow{}
	for i, s := range spans {
		l := layerOf(s.Name)
		r := agg[l]
		if r == nil {
			r = &layerRow{Layer: l}
			agg[l] = r
		}
		r.Spans++
		r.SelfMS += float64(self[i]) / 1e6
		if s.End > s.Start {
			r.WallMS += float64(s.End-s.Start) / 1e6
		}
	}
	rows := make([]layerRow, 0, len(agg))
	for _, r := range agg {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMS > rows[j].SelfMS })
	return rows
}

// durationsMS collects the durations (ms) of every closed span with the
// given name.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End > s.Start {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}
