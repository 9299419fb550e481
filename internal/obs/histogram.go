package obs

import (
	"math"
	"math/bits"
	"sync"
	"time"
)

// HistBuckets is the size of the shared latency histogram: bucket i
// counts observations with duration in ((1<<(i-1)) µs, (1<<i) µs], so
// the top bucket's bound exceeds 9 hours — effectively unbounded.
// This is the fixed power-of-two layout the serving layer has used
// since PR 2, promoted here so every latency metric shares it.
const HistBuckets = 36

// Histogram is a fixed-bucket duration histogram. One mutex guards
// count, sum, max and the buckets together, so a Snapshot is always
// internally consistent: Count equals the bucket total and Sum/Max
// describe exactly those observations.
type Histogram struct {
	mu      sync.Mutex
	counts  bool // unitless counts (Registry.CountHistogram), not durations
	count   uint64
	sum     time.Duration
	max     time.Duration
	buckets [HistBuckets]uint64
}

// countUnit is the stored value of a count of one in a histogram of
// unitless counts (Registry.CountHistogram): counts share the latency
// layout, so bucket i holds the counts in (2^(i-1), 2^i].
const countUnit = time.Microsecond

func newHistogram() *Histogram { return &Histogram{} }

// histBucket maps a duration to its bucket index.
func histBucket(d time.Duration) int {
	b := bits.Len64(uint64(d / time.Microsecond))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// BucketBound returns the upper bound of bucket i.
func BucketBound(i int) time.Duration {
	if i <= 0 {
		return time.Microsecond
	}
	return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.observe(d, histBucket(d))
}

// ObserveCount records one unitless count (a batch size, a queue
// length) on a histogram made by Registry.CountHistogram. A power of
// two lands in the bucket it bounds, so every le is exact for integers.
func (h *Histogram) ObserveCount(n int) {
	if n < 1 {
		n = 1
	}
	h.observe(time.Duration(n)*countUnit, min(bits.Len64(uint64(n-1)), HistBuckets-1))
}

func (h *Histogram) observe(d time.Duration, bucket int) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	h.buckets[bucket]++
	h.mu.Unlock()
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// HistSnapshot is a consistent point-in-time copy of a Histogram.
// Sum, Max and the bucket bounds are durations; Scale converts one to
// the histogram's exposition unit (seconds, or a plain count).
type HistSnapshot struct {
	Counts  bool
	Count   uint64
	Sum     time.Duration
	Max     time.Duration
	Buckets [HistBuckets]uint64
}

// Snapshot copies the histogram under its lock: the returned counts,
// sum and max all describe the same set of observations.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{Counts: h.counts, Count: h.count, Sum: h.sum, Max: h.max, Buckets: h.buckets}
}

// Scale renders a stored duration in the histogram's exposition unit.
func (s HistSnapshot) Scale(d time.Duration) float64 {
	if s.Counts {
		return float64(d / countUnit)
	}
	return d.Seconds()
}

// Mean returns the average observed duration, zero when empty.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile returns the upper bound of the bucket holding quantile p —
// nearest-rank, i.e. the ceil(p*n)-th smallest observation, so a tail
// outlier is never skipped at small counts. The top populated bucket's
// bound can overshoot the true maximum, so the observed max is used as
// a tighter upper bound. Returns zero when empty.
func (s HistSnapshot) Quantile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= rank {
			bound := BucketBound(i)
			if bound > s.Max {
				bound = s.Max
			}
			return bound
		}
	}
	return s.Max
}
