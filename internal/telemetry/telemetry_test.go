package telemetry

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers registration, observation and export
// from many goroutines at once; run under -race this is the registry's
// thread-safety proof.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("con_total", "h").Inc()
				r.CounterVec("con_by_code_total", "h", "code").With(fmt.Sprint(i % 3)).Inc()
				r.Gauge("con_gauge", "h").Set(float64(i))
				r.Histogram("con_seconds", "h").Observe(time.Duration(i) * time.Microsecond)
				if i%50 == 0 {
					var sb strings.Builder
					r.WritePrometheus(&sb)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("con_total", "h").Value(); got != 8*500 {
		t.Fatalf("con_total = %d, want %d", got, 8*500)
	}
	if got := r.Histogram("con_seconds", "h").Count(); got != 8*500 {
		t.Fatalf("histogram count = %d, want %d", got, 8*500)
	}
	var sum uint64
	for _, code := range []string{"0", "1", "2"} {
		sum += r.CounterVec("con_by_code_total", "h", "code").With(code).Value()
	}
	if sum != 8*500 {
		t.Fatalf("labeled counters sum to %d, want %d", sum, 8*500)
	}
}

// TestHistogramQuantileReference checks the exact-bucket quantiles
// against a sorted reference: the reported quantile must be the upper
// bound of the bucket holding the true order statistic.
func TestHistogramQuantileReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := newHistogram()
	samples := make([]time.Duration, 0, 5000)
	for i := 0; i < 5000; i++ {
		// Log-uniform over ~100ns..1s, exercising most of the bucket range.
		d := time.Duration(100 * (1 << uint(rng.Intn(24))) * (1 + rng.Intn(9)))
		samples = append(samples, d)
		h.Observe(d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.95, 0.99} {
		rank := int(q * float64(len(samples)))
		if float64(rank) < q*float64(len(samples)) {
			rank++
		}
		ref := samples[rank-1]
		want := time.Duration(bucketUpper(histBase, bucketIndex(ref)))
		if got := h.Quantile(q); got != want {
			t.Errorf("q=%g: got %v, want bucket upper %v (reference %v)", q, got, want, ref)
		}
		if got := h.Quantile(q); got < ref {
			t.Errorf("q=%g: quantile %v below sorted reference %v", q, got, ref)
		}
	}
	if h.Quantile(0.5) == 0 {
		t.Fatal("populated histogram reported zero p50")
	}
	if (&Histogram{}).Quantile(0.99) != 0 {
		t.Fatal("empty histogram should report 0")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	// le semantics: a value equal to a bucket bound lands in that bucket.
	for i := 0; i < histBuckets; i++ {
		bound := time.Duration(histBase << uint(i))
		if got := bucketIndex(bound); got != i {
			t.Errorf("bucketIndex(%v) = %d, want %d", bound, got, i)
		}
		if i > 0 {
			if got := bucketIndex(bound + 1); got != i+1 && i+1 <= histBuckets {
				t.Errorf("bucketIndex(%v) = %d, want %d", bound+1, got, i+1)
			}
		}
	}
	if got := bucketIndex(time.Hour); got != histBuckets {
		t.Errorf("overflow bucket: got %d, want %d", got, histBuckets)
	}
}

func TestValueHistogram(t *testing.T) {
	// Bucket boundaries: le semantics over plain values, powers of two.
	for i := 0; i < histBuckets; i++ {
		bound := uint64(1) << uint(i)
		if got := valueBucketIndex(bound); got != i {
			t.Errorf("valueBucketIndex(%d) = %d, want %d", bound, got, i)
		}
	}
	if got := valueBucketIndex(3); got != 2 {
		t.Errorf("valueBucketIndex(3) = %d, want 2 (le 4)", got)
	}

	h := newValueHistogram()
	for _, v := range []uint64{1, 1, 2, 8, 64} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count %d, want 5", h.Count())
	}
	if h.Sum() != 76 {
		t.Errorf("sum %d, want 76", h.Sum())
	}
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("p50 %g, want 2", got)
	}
	if got := h.Quantile(1); got != 64 {
		t.Errorf("p100 %g, want 64", got)
	}
	if (&ValueHistogram{}).Quantile(0.99) != 0 {
		t.Error("empty value histogram should report 0")
	}

	// Exposition: integer le bounds, integer sum, derived quantile gauges.
	r := NewRegistry()
	vh := r.ValueHistogram("vh_batch", "a value histogram")
	vh.Observe(3)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE vh_batch histogram",
		`vh_batch_bucket{le="1"} 0`,
		`vh_batch_bucket{le="4"} 1`,
		`vh_batch_bucket{le="+Inf"} 1`,
		"vh_batch_sum 3",
		"vh_batch_count 1",
		"# TYPE vh_batch_p50 gauge",
		"vh_batch_p50 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("fmt_total", "a counter").Add(3)
	r.GaugeVec("fmt_gauge", "a gauge", "state").With(`we"ird\`).Set(1.5)
	r.Histogram("fmt_seconds", "a histogram").Observe(time.Millisecond)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP fmt_total a counter",
		"# TYPE fmt_total counter",
		"fmt_total 3",
		`fmt_gauge{state="we\"ird\\"} 1.5`,
		"# TYPE fmt_seconds histogram",
		`fmt_seconds_bucket{le="+Inf"} 1`,
		"fmt_seconds_count 1",
		"# TYPE fmt_seconds_p99 gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "fmt_seconds_p99 ") {
		t.Errorf("exposition missing derived p99 sample:\n%s", out)
	}
}

func TestRegisterMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("same_name_total", "h")
	for name, fn := range map[string]func(){
		"kind":   func() { r.Gauge("same_name_total", "h") },
		"labels": func() { r.CounterVec("same_name_total", "h", "x") },
		"naming": func() { r.Counter("Not-Snake", "h") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
	// Identical re-registration returns the same child.
	if r.Counter("same_name_total", "h2") != r.Counter("same_name_total", "h") {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestTraceIDs(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Fatalf("two trace IDs collided: %s", a)
	}
	if len(a) != 16 || !ValidTraceID(a) {
		t.Fatalf("bad trace ID %q", a)
	}
	if ValidTraceID("") || ValidTraceID(strings.Repeat("a", 65)) || ValidTraceID("x y") {
		t.Fatal("ValidTraceID accepted junk")
	}
	ctx := WithTraceID(context.Background(), a)
	if got := TraceIDFrom(ctx); got != a {
		t.Fatalf("TraceIDFrom = %q, want %q", got, a)
	}
}

func TestInstrumentHTTP(t *testing.T) {
	r := NewRegistry()
	var gotCtxTrace string
	h := InstrumentHTTP(r, func(*http.Request) string { return "/x" },
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			gotCtxTrace = TraceIDFrom(req.Context())
			w.WriteHeader(http.StatusTeapot)
		}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set(TraceHeader, "cafe0123cafe0123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gotCtxTrace != "cafe0123cafe0123" {
		t.Fatalf("handler ctx trace = %q, want propagated header", gotCtxTrace)
	}
	if got := resp.Header.Get(TraceHeader); got != "cafe0123cafe0123" {
		t.Fatalf("response trace header = %q", got)
	}
	if n := r.CounterVec("easeml_http_requests_total", "h", "route", "code").With("/x", "418").Value(); n != 1 {
		t.Fatalf("requests_total{/x,418} = %d, want 1", n)
	}
	if n := r.HistogramVec("easeml_http_request_seconds", "h", "route").With("/x").Count(); n != 1 {
		t.Fatalf("request_seconds{/x} count = %d, want 1", n)
	}
}

func TestSlowOpLog(t *testing.T) {
	var buf bytes.Buffer
	old := slog.Default()
	slog.SetDefault(slog.New(slog.NewJSONHandler(&buf, nil)))
	oldT := SlowOpThreshold()
	defer func() {
		slog.SetDefault(old)
		SetSlowOpThreshold(oldT)
	}()

	SetSlowOpThreshold(time.Millisecond)
	SlowOp("test_op", 500*time.Microsecond, "trace", "t1") // under threshold
	if buf.Len() != 0 {
		t.Fatalf("under-threshold op logged: %s", buf.String())
	}
	SlowOp("test_op", 5*time.Millisecond, "trace", "t1")
	if !strings.Contains(buf.String(), "slow operation") || !strings.Contains(buf.String(), `"trace":"t1"`) {
		t.Fatalf("slow op log missing fields: %s", buf.String())
	}
	SetSlowOpThreshold(0)
	buf.Reset()
	SlowOp("test_op", time.Hour)
	if buf.Len() != 0 {
		t.Fatalf("disabled slow-op still logged: %s", buf.String())
	}
}

func TestLoggerConstruction(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hello", "k", "v")
	if !strings.Contains(buf.String(), `"k":"v"`) {
		t.Fatalf("json logger output: %s", buf.String())
	}
	if _, err := NewLogger(&buf, "xml", ""); err == nil {
		t.Fatal("bad format accepted")
	}
	if _, err := NewLogger(&buf, "text", "loud"); err == nil {
		t.Fatal("bad level accepted")
	}
}
