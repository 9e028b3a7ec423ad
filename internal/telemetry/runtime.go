package telemetry

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
)

// runtimeLE are the bucket bounds the runtime's latency histograms are
// folded into for the exposition: decades from 1 µs to 10 s.
var runtimeLE = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// WriteRuntimeMetrics appends the Go runtime's own series to a scrape,
// read from runtime/metrics at the moment it is called: how long runnable
// goroutines waited for a CPU, the stop-the-world GC pauses, the
// goroutine count, the live heap, and the time goroutines spent blocked
// on sync.Mutex and sync.RWMutex — where lock contention shows.
func WriteRuntimeMetrics(w io.Writer) {
	s := []metrics.Sample{
		{Name: "/sched/latencies:seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/sync/mutex/wait/total:seconds"},
	}
	metrics.Read(s)
	WriteMetricHeader(w, "easeml_go_sched_latency_seconds",
		"Time goroutines spent runnable before they ran (runtime /sched/latencies; the sum is a lower bound).", "histogram")
	writeRuntimeHistogram(w, "easeml_go_sched_latency_seconds", s[0].Value.Float64Histogram())
	WriteMetricHeader(w, "easeml_go_gc_pause_seconds",
		"Stop-the-world GC pause latencies (runtime /sched/pauses/total/gc; the sum is a lower bound).", "histogram")
	writeRuntimeHistogram(w, "easeml_go_gc_pause_seconds", s[1].Value.Float64Histogram())
	WriteMetricHeader(w, "easeml_go_goroutines", "Live goroutines.", "gauge")
	WriteGauge(w, "easeml_go_goroutines", "", float64(s[2].Value.Uint64()))
	WriteMetricHeader(w, "easeml_go_heap_live_bytes", "Heap bytes live as of the last GC.", "gauge")
	WriteGauge(w, "easeml_go_heap_live_bytes", "", float64(s[3].Value.Uint64()))
	WriteMetricHeader(w, "easeml_go_mutex_wait_seconds_total",
		"Time goroutines spent blocked on a sync.Mutex or sync.RWMutex (runtime /sync/mutex/wait/total).", "counter")
	WriteGauge(w, "easeml_go_mutex_wait_seconds_total", "", s[4].Value.Float64())
}

// writeRuntimeHistogram writes a runtime histogram's samples in the
// runtimeLE buckets. A runtime bucket counts toward a bound only once its
// upper edge is within it, and toward the sum at its lower edge.
func writeRuntimeHistogram(w io.Writer, name string, h *metrics.Float64Histogram) {
	var count uint64
	var sum float64
	le := 0
	for i, n := range h.Counts {
		for ; le < len(runtimeLE) && h.Buckets[i+1] > runtimeLE[le]; le++ {
			fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, formatFloat(runtimeLE[le]), count)
		}
		count += n
		if lo := h.Buckets[i]; n > 0 && !math.IsInf(lo, -1) {
			sum += float64(n) * lo
		}
	}
	for ; le < len(runtimeLE); le++ {
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, formatFloat(runtimeLE[le]), count)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n", name, count, name, formatFloat(sum), name, count)
}
