package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: exponential base-2 buckets over latency, from
// histBase up. Bucket i covers (histBase<<(i-1), histBase<<i] nanoseconds
// (bucket 0 is everything at or below histBase); one overflow bucket
// catches the tail. 2x resolution keeps the exact-bucket quantiles within
// a factor of two of the true order statistic, which is plenty to tell a
// 2µs pick from a 40µs one, while the whole shard stays a flat array
// indexed by bits.Len64 — no search, no branches on the hot path.
const (
	histBase    = 250 // ns; smallest bucket upper bound
	histBuckets = 32  // finite buckets; histBase<<31 ≈ 537s
	histShards  = 8   // must be a power of two
)

// histShard is one shard's bucket array. Shards are padded apart so two
// cores observing into neighbouring shards don't share a cache line.
type histShard struct {
	counts [histBuckets + 1]atomic.Uint64 // +1: overflow
	sum    atomic.Uint64                  // nanoseconds for Histogram, plain units for ValueHistogram
	_      [64]byte
}

// shardSet is the sharded bucket array both histogram kinds are built
// on; the kinds differ only in what a bucket's bound means. Bucket i's
// inclusive upper bound is base<<i (base histBase nanoseconds for
// Histogram, 1 for ValueHistogram); the overflow bucket reports the
// largest finite bound.
type shardSet [histShards]histShard

// snapshot merges the shards into one bucket array and sum.
func (hs *shardSet) snapshot() (counts [histBuckets + 1]uint64, sum uint64) {
	for s := range hs {
		for b := range hs[s].counts {
			counts[b] += hs[s].counts[b].Load()
		}
		sum += hs[s].sum.Load()
	}
	return counts, sum
}

// quantileBucket returns the bucket holding the ceil(q·n)-th smallest of
// the n observations (q clamped to [0, 1]), or -1 when n is 0.
func (hs *shardSet) quantileBucket(q float64) int {
	counts, _ := hs.snapshot()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return -1
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			return i
		}
	}
	return histBuckets
}

// bucketUpper returns bucket i's inclusive upper bound in base units.
func bucketUpper(base uint64, i int) uint64 {
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return base << uint(i)
}

// writeBuckets emits the child's _bucket/_sum/_count series. fam/key
// provide the label rendering context (le is appended to the child's own
// labels). With seconds set, base is in nanoseconds and the bounds and the
// sum are written in seconds; otherwise they are plain integers.
func (hs *shardSet) writeBuckets(w io.Writer, name string, fam *family, key string, base uint64, seconds bool) {
	counts, sum := hs.snapshot()
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += counts[i]
		le := float64(bucketUpper(base, i))
		if seconds {
			le /= 1e9
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, fam.renderLabels(key, `le="`+formatFloat(le)+`"`), cum)
	}
	cum += counts[histBuckets]
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, fam.renderLabels(key, `le="+Inf"`), cum)
	if seconds {
		fmt.Fprintf(w, "%s_sum%s %s\n", name, fam.renderLabels(key, ""), formatFloat(float64(sum)/1e9))
	} else {
		fmt.Fprintf(w, "%s_sum%s %d\n", name, fam.renderLabels(key, ""), sum)
	}
	fmt.Fprintf(w, "%s_count%s %d\n", name, fam.renderLabels(key, ""), cum)
}

// Histogram is a lock-free sharded latency histogram. Observe picks a
// shard via the runtime's per-P cheap random source and does two atomic
// adds; scrapes merge the shards. There is no mutex anywhere, so an
// Observe under coordMu never waits on a concurrent exposition.
type Histogram struct {
	shards shardSet
}

func newHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a duration to its bucket so that the bucket's upper
// bound is inclusive (Prometheus `le` semantics): d ≤ histBase<<i.
func bucketIndex(d time.Duration) int {
	if d <= histBase {
		return 0
	}
	idx := bits.Len64((uint64(d) - 1) / histBase)
	if idx > histBuckets {
		return histBuckets
	}
	return idx
}

// Observe records one latency sample. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := &h.shards[rand.Uint32()&(histShards-1)]
	s.counts[bucketIndex(d)].Add(1)
	s.sum.Add(uint64(d))
}

// ObserveSince records time.Since(t0).
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0)) }

// Quantile returns the exact-bucket q-quantile: the inclusive upper
// bound of the bucket containing the ceil(q·n)-th smallest observation.
// It returns 0 on an empty histogram and clamps q to [0, 1].
func (h *Histogram) Quantile(q float64) time.Duration {
	i := h.shards.quantileBucket(q)
	if i < 0 {
		return 0
	}
	return time.Duration(bucketUpper(histBase, i))
}

func (h *Histogram) writeBuckets(w io.Writer, name string, fam *family, key string) {
	h.shards.writeBuckets(w, name, fam, key, histBase, true)
}

// ValueHistogram is the unit-valued sibling of Histogram: the same
// lock-free sharded layout, but buckets are powers of two over a plain
// count (batch sizes, queue depths) instead of nanoseconds. Bucket i
// covers (2^(i-1), 2^i] with bucket 0 holding everything at or below 1,
// so the exposition's le values are small integers, not seconds.
type ValueHistogram struct {
	shards shardSet
}

func newValueHistogram() *ValueHistogram { return &ValueHistogram{} }

// valueBucketIndex maps a value to its inclusive-upper-bound bucket:
// v ≤ 2^i.
func valueBucketIndex(v uint64) int {
	if v <= 1 {
		return 0
	}
	idx := bits.Len64(v - 1)
	if idx > histBuckets {
		return histBuckets
	}
	return idx
}

// Observe records one value sample.
func (h *ValueHistogram) Observe(v uint64) {
	s := &h.shards[rand.Uint32()&(histShards-1)]
	s.counts[valueBucketIndex(v)].Add(1)
	s.sum.Add(v)
}

// Quantile returns the exact-bucket q-quantile as a plain value (the
// inclusive upper bound of the bucket containing the ceil(q·n)-th
// smallest observation); 0 on an empty histogram.
func (h *ValueHistogram) Quantile(q float64) float64 {
	i := h.shards.quantileBucket(q)
	if i < 0 {
		return 0
	}
	return float64(bucketUpper(1, i))
}

func (h *ValueHistogram) writeBuckets(w io.Writer, name string, fam *family, key string) {
	h.shards.writeBuckets(w, name, fam, key, 1, false)
}
