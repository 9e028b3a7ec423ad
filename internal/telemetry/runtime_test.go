package telemetry

import (
	"bytes"
	"math"
	"runtime/metrics"
	"strings"
	"testing"
)

// A runtime histogram folds into the decade buckets by upper edge: a
// runtime bucket counts toward a bound once its upper edge is within it,
// and toward the sum at its lower edge.
func TestWriteRuntimeHistogram(t *testing.T) {
	h := &metrics.Float64Histogram{
		Buckets: []float64{math.Inf(-1), 0, 1e-6, 5e-6, 2e-5, 3, math.Inf(1)},
		Counts:  []uint64{0, 3, 2, 1, 4, 1},
	}
	var b bytes.Buffer
	writeRuntimeHistogram(&b, "x", h)
	want := `x_bucket{le="1e-06"} 3
x_bucket{le="1e-05"} 5
x_bucket{le="0.0001"} 6
x_bucket{le="0.001"} 6
x_bucket{le="0.01"} 6
x_bucket{le="0.1"} 6
x_bucket{le="1"} 6
x_bucket{le="10"} 10
x_bucket{le="+Inf"} 11
x_sum 3.000087
x_count 11
`
	if b.String() != want {
		t.Errorf("got\n%s\nwant\n%s", b.String(), want)
	}
}

// Every runtime family a scrape reads is there, each under its own TYPE.
func TestWriteRuntimeMetrics(t *testing.T) {
	var b bytes.Buffer
	WriteRuntimeMetrics(&b)
	for _, family := range []string{"easeml_go_sched_latency_seconds histogram", "easeml_go_gc_pause_seconds histogram",
		"easeml_go_goroutines gauge", "easeml_go_heap_live_bytes gauge", "easeml_go_mutex_wait_seconds_total counter"} {
		if !strings.Contains(b.String(), "# TYPE "+family+"\n") {
			t.Errorf("no # TYPE %s in\n%s", family, b.String())
		}
	}
}

func BenchmarkWriteRuntimeMetrics(b *testing.B) {
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		WriteRuntimeMetrics(&buf)
	}
	b.ReportMetric(float64(buf.Len()), "bytes/scrape")
}
