package obs

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the Prometheus inclusive-upper-bound
// rule: an observation exactly equal to a bound lands in that bound's
// bucket, just above it lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	h := NewHistogram(bounds)
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {0.5, 0}, {1, 0}, // v <= 1 -> bucket 0
		{1.0000001, 1}, {2, 1},
		{3, 2}, {4, 2},
		{7.999, 3}, {8, 3},
		{8.001, 4}, {1e9, 4}, // +Inf bucket
		{math.Inf(1), 4},
		{-5, 0},
	}
	for _, c := range cases {
		if got := h.bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", s.Count, len(cases))
	}
	want := []uint64{4, 2, 2, 2, 3}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
}

// TestHistogramBoundaryProperty fuzzes the bucket rule against the
// reference linear scan across random bucket layouts.
func TestHistogramBoundaryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(24)
		bounds := make([]float64, 0, n)
		v := rng.Float64() * 10
		for len(bounds) < n {
			bounds = append(bounds, v)
			v += 0.01 + rng.Float64()*5
		}
		h := NewHistogram(bounds)
		for j := 0; j < 50; j++ {
			var x float64
			if rng.Intn(3) == 0 {
				x = bounds[rng.Intn(len(bounds))] // exact boundary hit
			} else {
				x = rng.Float64()*v*1.2 - 1
			}
			ref := len(bounds)
			for i, b := range bounds {
				if x <= b {
					ref = i
					break
				}
			}
			if got := h.bucketIndex(x); got != ref {
				t.Fatalf("bounds=%v x=%v: bucketIndex=%d ref=%d", bounds, x, got, ref)
			}
		}
	}
}

func TestNewHistogramRejectsUnsorted(t *testing.T) {
	for _, bad := range [][]float64{{2, 1}, {1, 1}, {1, 2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bad)
				}
			}()
			NewHistogram(bad)
		}()
	}
}

// TestHistogramConcurrentMergeInvariance is the core correctness test:
// recording the same multiset of observations through (a) direct atomic
// Observe from many goroutines and (b) one goroutine observing them in
// order must produce identical bucket counts, total count, and (exactly,
// since we use integer-valued floats) sum.
func TestHistogramConcurrentMergeInvariance(t *testing.T) {
	bounds := DefLatencyBuckets()
	const shards, perShard = 8, 5000
	// Deterministic per-shard observation sets (integer-valued so float
	// addition is associative and sums compare exactly).
	obs := make([][]float64, shards)
	rng := rand.New(rand.NewSource(42))
	for s := range obs {
		obs[s] = make([]float64, perShard)
		for i := range obs[s] {
			obs[s][i] = float64(rng.Intn(1 << 20))
		}
	}

	direct := NewHistogram(bounds)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for _, v := range obs[s] {
				direct.Observe(v)
			}
		}(s)
	}
	wg.Wait()

	serial := NewHistogram(bounds)
	for s := range obs {
		for _, v := range obs[s] {
			serial.Observe(v)
		}
	}

	a, b := direct.Snapshot(), serial.Snapshot()
	if a.Count != b.Count || a.Count != shards*perShard {
		t.Fatalf("count mismatch: direct=%d serial=%d want=%d", a.Count, b.Count, shards*perShard)
	}
	if a.Sum != b.Sum {
		t.Fatalf("sum mismatch: direct=%v serial=%v", a.Sum, b.Sum)
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			t.Fatalf("bucket %d mismatch: direct=%d serial=%d", i, a.Counts[i], b.Counts[i])
		}
	}
}

func TestNilHistogramSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	s := h.Snapshot()
	if s.Count != 0 {
		t.Fatal("nil snapshot not empty")
	}
}

func TestSnapshotQuantileAndMean(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	for i := 1; i <= 30; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if got := s.Mean(); math.Abs(got-15.5) > 1e-9 {
		t.Errorf("mean = %v, want 15.5", got)
	}
	// Uniform 1..30 over [0,10],(10,20],(20,30]: each bucket holds 10.
	if q := s.Quantile(0.5); math.Abs(q-15) > 1e-9 {
		t.Errorf("p50 = %v, want 15", q)
	}
	if q := s.Quantile(1.0); math.Abs(q-30) > 1e-9 {
		t.Errorf("p100 = %v, want 30", q)
	}
	if q := s.Quantile(0); q < 0 || q > 10 {
		t.Errorf("p0 = %v, want within first bucket", q)
	}
	// +Inf bucket clamps to last finite bound.
	h2 := NewHistogram([]float64{1})
	h2.Observe(100)
	if q := h2.Snapshot().Quantile(0.99); q != 1 {
		t.Errorf("+Inf quantile = %v, want clamp to 1", q)
	}
	var empty Snapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty snapshot quantile/mean should be 0")
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	for _, lat := range [][]float64{DefLatencyBuckets(), DefSizeBuckets()} {
		for i := 1; i < len(lat); i++ {
			if !(lat[i] > lat[i-1]) {
				t.Fatal("default buckets not increasing")
			}
		}
	}
}

func TestCounterGaugeNilSafe(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Load() != 0 {
		t.Fatal("nil counter load")
	}
	var g *Gauge
	g.Set(5)
	g.Add(-1)
	if g.Load() != 0 {
		t.Fatal("nil gauge load")
	}
	cc := &Counter{}
	cc.Add(2)
	cc.Inc()
	if cc.Load() != 3 {
		t.Fatalf("counter = %d, want 3", cc.Load())
	}
	gg := &Gauge{}
	gg.Set(10)
	gg.Add(-3)
	if gg.Load() != 7 {
		t.Fatalf("gauge = %d, want 7", gg.Load())
	}
}
