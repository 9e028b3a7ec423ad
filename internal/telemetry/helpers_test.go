package telemetry

import "time"

// What follows only this package's tests call: no command, example or
// public API reaches it (go run ./tools/reachgate).

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	counts, _ := h.shards.snapshot()
	var total uint64
	for _, c := range counts {
		total += c
	}
	return total
}

// Count returns the total number of observations.
func (h *ValueHistogram) Count() uint64 {
	counts, _ := h.shards.snapshot()
	var total uint64
	for _, c := range counts {
		total += c
	}
	return total
}

// Sum returns the sum of all observed values.
func (h *ValueHistogram) Sum() uint64 {
	_, sum := h.shards.snapshot()
	return sum
}

// Start returns the span's start time.
func (d SpanData) Start() time.Time { return time.Unix(0, d.StartNS) }

// Duration returns the span's duration.
func (d SpanData) Duration() time.Duration { return time.Duration(d.DurationNS) }
