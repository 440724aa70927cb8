// Package metrics provides the measurement primitives used by every
// experiment: latency histograms with percentile queries, throughput
// counters, and time-series samplers for the drill-down figures
// (Figures 11 and 14 of the paper).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Histogram records durations in exponentially sized buckets and exact
// min/max/sum, supporting approximate percentile queries. Buckets span
// 1 ns to ~18 h with 8 sub-buckets per power of two, giving < 10% error,
// plenty for reproducing latency shapes.
type Histogram struct {
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets map[int]int64
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64, buckets: make(map[int]int64)}
}

const subBuckets = 8

func bucketOf(v int64) int {
	if v < 1 {
		v = 1
	}
	exp := 63 - leadingZeros(uint64(v))
	base := int64(1) << uint(exp)
	sub := int((v - base) * subBuckets / base)
	if sub >= subBuckets {
		sub = subBuckets - 1
	}
	return exp*subBuckets + sub
}

func bucketMid(b int) int64 {
	exp := b / subBuckets
	sub := b % subBuckets
	base := int64(1) << uint(exp)
	lo := base + base*int64(sub)/subBuckets
	hi := base + base*int64(sub+1)/subBuckets
	return (lo + hi) / 2
}

func leadingZeros(x uint64) int {
	n := 0
	if x == 0 {
		return 64
	}
	for x&(1<<63) == 0 {
		x <<= 1
		n++
	}
	return n
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.buckets[bucketOf(v)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the mean observation.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Min returns the smallest observation.
func (h *Histogram) Min() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.max)
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum) }

// Quantile returns the approximate q-quantile (0 <= q <= 1).
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	keys := make([]int, 0, len(h.buckets))
	for b := range h.buckets {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	target := int64(q * float64(h.count))
	var cum int64
	for _, b := range keys {
		cum += h.buckets[b]
		if cum > target {
			mid := bucketMid(b)
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return time.Duration(mid)
		}
	}
	return h.Max()
}

// P50, P95, P99 are convenience percentile accessors.
func (h *Histogram) P50() time.Duration { return h.Quantile(0.50) }
func (h *Histogram) P95() time.Duration { return h.Quantile(0.95) }
func (h *Histogram) P99() time.Duration { return h.Quantile(0.99) }

// Merge adds all observations of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for b, c := range other.buckets {
		h.buckets[b] += c
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() {
	h.count, h.sum, h.max = 0, 0, 0
	h.min = math.MaxInt64
	h.buckets = make(map[int]int64)
}

func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.count, h.Mean(), h.P50(), h.P95(), h.P99(), h.Max())
}

// Contention records how often acquirers of a bounded resource had to
// block, how long they waited in total, and the high-water mark of units
// in use. The rmem client uses it to expose staging-slot contention —
// the quantity that tells whether a batching win came from fewer round
// trips or just from less queueing.
type Contention struct {
	Waits     int64         // acquisitions that had to block
	WaitTime  time.Duration // total time spent blocked
	HighWater int           // maximum units observed in use
}

// RecordWait counts one blocking acquisition that waited d.
func (c *Contention) RecordWait(d time.Duration) {
	c.Waits++
	c.WaitTime += d
}

// Observe updates the high-water mark with the current in-use count.
func (c *Contention) Observe(inUse int) {
	if inUse > c.HighWater {
		c.HighWater = inUse
	}
}

// Counter is a monotonically increasing count with a byte tally, used for
// I/O and query throughput.
type Counter struct {
	N     int64
	Bytes int64
}

// Add records n events moving bytes in total.
func (c *Counter) Add(n, bytes int64) {
	c.N += n
	c.Bytes += bytes
}

// Rate returns events/second over elapsed.
func (c *Counter) Rate(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.N) / elapsed.Seconds()
}

// ByteRate returns bytes/second over elapsed.
func (c *Counter) ByteRate(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.Bytes) / elapsed.Seconds()
}

// Gauge is an instantaneous level (active leases, free MRs). Unlike
// Counter it goes both ways; it remembers the high-water mark so a
// one-shot snapshot at the end of an experiment still reflects the peak.
type Gauge struct {
	Value int64
	Peak  int64
}

// Set replaces the current level.
func (g *Gauge) Set(v int64) {
	g.Value = v
	if v > g.Peak {
		g.Peak = v
	}
}

// Distribution summarizes a stream of sizes (heartbeat batch widths,
// grant counts): count, sum, min, max. Cheaper than a Histogram and
// sufficient for gauging how well batching amortizes round trips.
type Distribution struct {
	N   int64
	Sum int64
	Min int64
	Max int64
}

// Observe records one size.
func (d *Distribution) Observe(v int64) {
	if d.N == 0 || v < d.Min {
		d.Min = v
	}
	if v > d.Max {
		d.Max = v
	}
	d.N++
	d.Sum += v
}

// Mean returns the average observed size.
func (d *Distribution) Mean() float64 {
	if d.N == 0 {
		return 0
	}
	return float64(d.Sum) / float64(d.N)
}

// Merge folds other into d.
func (d *Distribution) Merge(other Distribution) {
	if other.N == 0 {
		return
	}
	if d.N == 0 || other.Min < d.Min {
		d.Min = other.Min
	}
	if other.Max > d.Max {
		d.Max = other.Max
	}
	d.N += other.N
	d.Sum += other.Sum
}

// Point is one sample in a time series.
type Point struct {
	At    time.Duration
	Value float64
}

// Series accumulates (time, value) samples for drill-down plots.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(at time.Duration, v float64) {
	s.Points = append(s.Points, Point{At: at, Value: v})
}

// Last returns the most recent value, or 0.
func (s *Series) Last() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].Value
}

// Mean returns the average of all sample values.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.Value
	}
	return sum / float64(len(s.Points))
}
