// Package telemetry is the zero-dependency observability layer shared by
// every process in the system: an atomic metrics registry (counters,
// gauges, sharded latency histograms) with Prometheus text exposition, a
// lightweight trace-ID scheme propagated over the X-Easeml-Trace header,
// slog construction helpers, and the slow-operation log.
//
// Design constraints, in order:
//
//   - Observation is lock-free. Counters and gauges are single atomic
//     words; histograms are sharded atomic bucket arrays. The pick path
//     and the WAL append path observe on every operation, so an Observe
//     must cost nanoseconds and never contend with a scrape.
//   - Registration is idempotent (get-or-create by name). Metrics are
//     process-global aggregates: a test that builds three schedulers
//     shares one family rather than panicking on re-registration.
//   - No third-party imports. Exposition is the Prometheus text format
//     written by hand; nothing here links against a client library.
//   - Recording provenance costs a fixed amount, so it stays on always.
//     There is one span type, Span, built by value and copied into the
//     flight recorder when it ends. The recorder's rings hold spans and
//     decisions by value, with up to eight span attributes and three
//     TopUCB rows inline, and build SpanData (and its attribute map) only
//     when read. The budgets, pinned by BenchmarkSpanRecord in the CI
//     allocation gate: a span records with 0 allocations, a lease-shaped
//     root with four attributes included; a DecisionRing.Add costs 0.
package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
)

// Kind is a metric family's type as it appears in the # TYPE line.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// metricNameRE is the registry's naming contract: lower snake_case, as
// tools/metriclint also enforces statically.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// Registry holds metric families keyed by name. Registration takes the
// registry lock once per family; observation never touches it.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string
}

// family is one named metric family: a scalar (no labels, one child under
// the empty key) or a vector (children keyed by joined label values).
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string

	mu       sync.RWMutex
	children map[string]any
	order    []string
}

// NewRegistry creates an empty registry. Most callers want Default().
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default is the process-global registry every instrumented package
// registers into and GET /metrics exposes.
func Default() *Registry { return defaultRegistry }

// register gets or creates a family, panicking on a name that violates
// the snake_case contract or a redefinition with a different shape —
// both are programming errors, not runtime conditions.
func (r *Registry) register(name, help string, kind Kind, labels []string) *family {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: metric name %q is not snake_case", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s%v, was %s%v",
				name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, children: make(map[string]any)}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// child returns the family's child for the given label values, creating
// it with mk on first use. The read path is an RLock and a map hit.
func (f *family) child(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = mk()
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// Counter registers (or finds) a scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, KindCounter, nil)
	return f.child(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, KindCounter, labels)}
}

// Gauge registers (or finds) a scalar gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, KindGauge, nil)
	return f.child(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, KindGauge, labels)}
}

// Histogram registers (or finds) a scalar latency histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	f := r.register(name, help, KindHistogram, nil)
	return f.child(nil, func() any { return newHistogram() }).(*Histogram)
}

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, KindHistogram, labels)}
}

// ValueHistogram registers (or finds) a scalar unit-valued histogram
// (power-of-two buckets over plain counts — batch sizes, queue depths —
// instead of nanoseconds).
func (r *Registry) ValueHistogram(name, help string) *ValueHistogram {
	f := r.register(name, help, KindHistogram, nil)
	return f.child(nil, func() any { return newValueHistogram() }).(*ValueHistogram)
}

// CounterVec is a counter family with label dimensions.
type CounterVec struct{ f *family }

// With returns the child counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct{ f *family }

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a histogram family with label dimensions.
type HistogramVec struct{ f *family }

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() any { return newHistogram() }).(*Histogram)
}

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4). Histogram families additionally export derived
// <name>_p50/_p95/_p99 gauge families so dashboards (and the acceptance
// tests) can read exact-bucket quantiles without a query engine.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.RUnlock()
	for _, f := range fams {
		f.write(w)
	}
}

// Handler serves the registry as GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "use GET", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

func (f *family) write(w io.Writer) {
	f.mu.RLock()
	keys := append([]string(nil), f.order...)
	children := make([]any, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.RUnlock()

	WriteMetricHeader(w, f.name, f.help, string(f.kind))
	for i, key := range keys {
		labels := f.renderLabels(key, "")
		switch c := children[i].(type) {
		case *Counter:
			fmt.Fprintf(w, "%s%s %d\n", f.name, labels, c.Value())
		case *Gauge:
			fmt.Fprintf(w, "%s%s %s\n", f.name, labels, formatFloat(c.Value()))
		case *Histogram:
			c.writeBuckets(w, f.name, f, key)
		case *ValueHistogram:
			c.writeBuckets(w, f.name, f, key)
		}
	}
	if f.kind == KindHistogram {
		f.writeQuantiles(w, keys, children)
	}
}

// writeQuantiles emits the derived quantile gauge families for a
// histogram family: one family per quantile, children matching the
// histogram's label sets.
func (f *family) writeQuantiles(w io.Writer, keys []string, children []any) {
	for _, q := range []struct {
		suffix string
		q      float64
	}{{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}} {
		name := f.name + q.suffix
		WriteMetricHeader(w, name, fmt.Sprintf("Exact-bucket q=%g of %s.", q.q, f.name), string(KindGauge))
		for i, key := range keys {
			var v float64
			switch h := children[i].(type) {
			case *Histogram:
				v = h.Quantile(q.q).Seconds()
			case *ValueHistogram:
				v = h.Quantile(q.q)
			}
			fmt.Fprintf(w, "%s%s %s\n", name, f.renderLabels(key, ""), formatFloat(v))
		}
	}
}

// renderLabels formats a child's label set, optionally with one extra
// pair (the histogram bucket's le) appended.
func (f *family) renderLabels(key, extra string) string {
	if len(f.labels) == 0 && extra == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	if len(f.labels) > 0 {
		values := strings.Split(key, "\xff")
		for i, l := range f.labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(values[i]))
			sb.WriteByte('"')
		}
		if extra != "" {
			sb.WriteByte(',')
		}
	}
	sb.WriteString(extra)
	sb.WriteByte('}')
	return sb.String()
}

// EscapeLabelValue escapes a label value for hand-rendered sample lines
// (the server's scrape-time dynamic gauges use it for tenant names).
func EscapeLabelValue(v string) string { return escapeLabel(v) }

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteMetricHeader writes the # HELP / # TYPE preamble for one family.
// Exported so the server can append dynamically-computed gauges (job
// counts, selection stats) to the same exposition stream at scrape time.
func WriteMetricHeader(w io.Writer, name, help, kind string) {
	help = strings.ReplaceAll(help, "\n", " ")
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// WriteGauge writes one gauge sample line (with optional rendered label
// block, e.g. `{state="alive"}`) for dynamically-computed exposition.
func WriteGauge(w io.Writer, name, labels string, v float64) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(v))
}
