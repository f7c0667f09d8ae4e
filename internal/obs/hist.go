package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket latency histogram safe for concurrent use.
// Buckets hold observation counts for values ≤ the matching upper bound;
// values above the last bound land in an implicit +Inf bucket. Counts and
// the running sum use atomics, so Observe never takes a lock on the hot
// serving path.
type Histogram struct {
	name    string
	bounds  []float64
	counts  []int64 // len(bounds)+1; last is the +Inf overflow bucket
	sumBits uint64  // float64 bits of the observation sum, CAS-updated
	total   int64
}

// DefaultLatencyBuckets are the millisecond upper bounds used by the
// serving path: sub-millisecond cache hits up to multi-second stragglers.
var DefaultLatencyBuckets = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	atomic.AddInt64(&h.counts[i], 1)
	atomic.AddInt64(&h.total, 1)
	for {
		old := atomic.LoadUint64(&h.sumBits)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&h.sumBits, old, next) {
			return
		}
	}
}

// HistogramSnapshot is a consistent-enough point-in-time copy of a
// histogram for rendering: cumulative bucket counts, total count and sum.
type HistogramSnapshot struct {
	Name string
	// Bounds are the bucket upper bounds; Cumulative[i] counts
	// observations ≤ Bounds[i]. Count includes the +Inf overflow.
	Bounds     []float64
	Cumulative []int64
	Count      int64
	Sum        float64
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Name:   h.name,
		Bounds: h.bounds,
		Count:  atomic.LoadInt64(&h.total),
		Sum:    math.Float64frombits(atomic.LoadUint64(&h.sumBits)),
	}
	s.Cumulative = make([]int64, len(h.bounds))
	var run int64
	for i := range h.bounds {
		run += atomic.LoadInt64(&h.counts[i])
		s.Cumulative[i] = run
	}
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts by
// linear interpolation within the containing bucket. Observations beyond
// the last bound report the last bound. Returns NaN when empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	for i, c := range s.Cumulative {
		if float64(c) >= rank {
			lo, loCount := 0.0, int64(0)
			if i > 0 {
				lo, loCount = s.Bounds[i-1], s.Cumulative[i-1]
			}
			in := c - loCount
			if in == 0 {
				return s.Bounds[i]
			}
			frac := (rank - float64(loCount)) / float64(in)
			return lo + frac*(s.Bounds[i]-lo)
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}
