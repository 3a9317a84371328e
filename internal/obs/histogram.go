package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket lock-free histogram: one atomic counter per
// bucket plus an atomic count and (CAS-accumulated) sum. Bucket bounds are
// inclusive upper bounds in the Prometheus sense — an observation v lands
// in the first bucket with v <= bound, or the implicit +Inf bucket past
// the last. Observe is wait-free on the bucket counters and lock-free on
// the float sum; a nil *Histogram is the uninstrumented no-op.
//
//otfair:nilsafe nil histogram is the uninstrumented no-op on the record hot path
type Histogram struct {
	bounds  []float64 // sorted, strictly increasing upper bounds
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

// NewHistogram builds a histogram over the given bucket upper bounds,
// which must be sorted and strictly increasing (a +Inf bucket is implicit
// and must not be passed). Panics on unsorted bounds — a bind-time
// programming error.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// bucketIndex returns the index of the bucket v falls in: the first bound
// with v <= bound, len(bounds) for the +Inf bucket. NaN lands in +Inf.
func (h *Histogram) bucketIndex(v float64) int {
	// sort.SearchFloat64s finds the first bound >= v, which is almost the
	// inclusive-upper-bound rule; the only disagreement is v exactly equal
	// to a bound, where >= and <= agree anyway. Binary search is
	// allocation-free and beats a linear scan on the ~20-bucket layouts.
	//otfair:nilrecv-ok only reachable through Observe, after its nil guard
	return sort.SearchFloat64s(h.bounds, v)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

// ObserveDuration records a duration in seconds — the Prometheus unit for
// every _seconds histogram.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// addSum accumulates v into the float sum with a CAS loop (lock-free:
// some thread always makes progress).
func (h *Histogram) addSum(v float64) {
	for {
		//otfair:nilrecv-ok only reachable through Observe, after its nil guard
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Snapshot is a point-in-time copy of a histogram's state. Counts has one
// entry per bucket plus the +Inf bucket last; entries are per-bucket (not
// cumulative — exposition accumulates).
type Snapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram state. Buckets are read individually, so a
// snapshot taken under concurrent recording may be off by in-flight
// observations — fine for monitoring, which is the only consumer.
func (h *Histogram) Snapshot() Snapshot {
	if h == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Mean returns the mean observation (0 when empty).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear interpolation
// within the bucket the rank falls in, the standard Prometheus
// histogram_quantile estimate. The +Inf bucket reports the last finite
// bound (there is nothing to interpolate toward); an empty histogram
// reports 0.
func (s Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) >= rank {
			if i == len(s.Bounds) {
				// +Inf bucket: clamp to the largest finite bound.
				if len(s.Bounds) == 0 {
					return 0
				}
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			if c == 0 {
				return hi
			}
			inBucket := float64(cum - c) // rank at bucket start
			return lo + (hi-lo)*(rank-inBucket)/float64(c)
		}
	}
	if len(s.Bounds) == 0 {
		return 0
	}
	return s.Bounds[len(s.Bounds)-1]
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start and multiplying by factor — the standard layout for latencies and
// sizes. Panics on start <= 0, factor <= 1 or n < 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// DefLatencyBuckets spans 50 µs to ~26 s in 20 doubling buckets — wide
// enough for a sub-millisecond alias draw and a multi-gigabyte archival
// stream in the same histogram.
func DefLatencyBuckets() []float64 { return ExpBuckets(50e-6, 2, 20) }

// DefSizeBuckets spans 1 to ~1.05 M in 11 quadrupling buckets, for
// records-per-request style size distributions.
func DefSizeBuckets() []float64 { return ExpBuckets(1, 4, 11) }
