package stat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"otfair/internal/vec"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) not NaN")
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Unbiased variance: the population variance 4 times 8/7.
	if got := Variance(xs); !almostEq(got, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of singleton not NaN")
	}
}

func TestStdDevNonNegative(t *testing.T) {
	err := quick.Check(func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		if len(xs) < 2 {
			return true
		}
		return StdDev(xs) >= 0
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 7, 0})
	if err != nil || lo != -1 || hi != 7 {
		t.Errorf("MinMax = %v %v %v", lo, hi, err)
	}
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Errorf("MinMax(nil) err = %v", err)
	}
}

func TestQuantileType7(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {1.0 / 3, 2},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.p); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for p > 1")
		}
	}()
	Quantile([]float64{1, 2}, 1.5)
}

func TestMedianIQR(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Median(xs); got != 3 {
		t.Errorf("Median = %v", got)
	}
	if got := IQR(xs); got != 2 {
		t.Errorf("IQR = %v", got)
	}
}

func TestCovarianceCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got := Correlation(xs, ys); !almostEq(got, 1, 1e-12) {
		t.Errorf("Correlation = %v, want 1", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Correlation(xs, neg); !almostEq(got, -1, 1e-12) {
		t.Errorf("Correlation = %v, want -1", got)
	}
	if got := Covariance(xs, ys); !almostEq(got, 10.0/3, 1e-12) {
		t.Errorf("Covariance = %v", got)
	}
	if !math.IsNaN(Covariance(xs, ys[:2])) {
		t.Error("mismatched lengths not NaN")
	}
}

func TestLinspaceMatchesAlgorithmOneSupport(t *testing.T) {
	// Algorithm 1 line 4 with nQ=5, range [0, 8].
	q := Linspace(0, 8, 5)
	want := []float64{0, 2, 4, 6, 8}
	for i := range want {
		if !almostEq(q[i], want[i], 1e-12) {
			t.Errorf("Linspace[%d] = %v, want %v", i, q[i], want[i])
		}
	}
	if q[4] != 8 {
		t.Error("endpoint not pinned")
	}
}

func TestLinspaceDegenerate(t *testing.T) {
	if got := Linspace(3, 3, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("degenerate Linspace = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Linspace(0,1,1) did not panic")
		}
	}()
	Linspace(0, 1, 1)
}

func TestLinspaceEndpointsProperty(t *testing.T) {
	err := quick.Check(func(lo, span float64, n uint8) bool {
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(span) || math.IsInf(span, 0) {
			return true
		}
		// Keep magnitudes physical: huge values overflow hi-lo and are not a
		// regime the support construction needs to serve.
		lo = math.Mod(lo, 1e6)
		hi := lo + math.Mod(math.Abs(span), 1e6) + 1
		m := int(n%100) + 2
		q := Linspace(lo, hi, m)
		if len(q) != m || q[0] != lo || q[m-1] != hi {
			return false
		}
		for i := 1; i < m; i++ {
			if q[i] < q[i-1] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	w, err := Normalize([]float64{1, 3})
	if err != nil || !almostEq(w[0], 0.25, 1e-12) || !almostEq(w[1], 0.75, 1e-12) {
		t.Errorf("Normalize = %v, %v", w, err)
	}
	if _, err := Normalize([]float64{0, 0}); err == nil {
		t.Error("zero mass accepted")
	}
	if _, err := Normalize([]float64{-1, 2}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := Normalize(nil); err != ErrEmpty {
		t.Error("empty input not ErrEmpty")
	}
}

func TestColumn(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	col := Column(rows, 1)
	if len(col) != 3 || col[0] != 2 || col[2] != 6 {
		t.Errorf("Column = %v", col)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	xs := []float64{1.5, -2, 0, 4.25, 3, 3, -7}
	var w Welford
	w.AddAll(xs)
	if !almostEq(w.Mean(), Mean(xs), 1e-12) {
		t.Errorf("Welford mean %v vs %v", w.Mean(), Mean(xs))
	}
	if !almostEq(w.Variance(), Variance(xs), 1e-12) {
		t.Errorf("Welford var %v vs %v", w.Variance(), Variance(xs))
	}
	if w.Min() != -7 || w.Max() != 4.25 || w.N() != len(xs) {
		t.Errorf("Welford extremes %v %v %v", w.Min(), w.Max(), w.N())
	}
}

func TestWelfordMerge(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	var a, b, whole Welford
	a.AddAll(xs[:3])
	b.AddAll(xs[3:])
	whole.AddAll(xs)
	a.Merge(b)
	if !almostEq(a.Mean(), whole.Mean(), 1e-12) || !almostEq(a.Variance(), whole.Variance(), 1e-12) {
		t.Errorf("merged %v/%v vs whole %v/%v", a.Mean(), a.Variance(), whole.Mean(), whole.Variance())
	}
	var empty Welford
	empty.Merge(a)
	if empty.N() != a.N() {
		t.Error("merge into empty lost observations")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 1.9, 2, 9.99, 10, -1, 11} {
		h.Add(x)
	}
	if h.Below != 1 || h.Above != 1 {
		t.Errorf("out-of-range counts %d %d", h.Below, h.Above)
	}
	// Bins: [0,2):2, [2,4):1, [8,10]:2.
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[4] != 2 {
		t.Errorf("counts = %v", h.Counts)
	}
	pmf, err := h.PMF()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(vec.Sum(pmf), 1, 1e-12) {
		t.Errorf("pmf sums to %v", vec.Sum(pmf))
	}
	centers := h.Centers()
	if !almostEq(centers[0], 1, 1e-12) || !almostEq(centers[4], 9, 1e-12) {
		t.Errorf("centers = %v", centers)
	}
}

func TestHistogramRejectsBadGeometry(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("0 bins accepted")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("hi == lo accepted")
	}
}

func TestECDFBasic(t *testing.T) {
	e, err := NewECDF([]float64{3, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {5, 1},
	}
	for _, c := range cases {
		if got := e.CDF(c.x); !almostEq(got, c.want, 1e-12) {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := e.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) = %v", got)
	}
	if got := e.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v", got)
	}
	if got := e.Quantile(1); got != 3 {
		t.Errorf("Quantile(1) = %v", got)
	}
}

func TestECDFQuantileCDFInverseProperty(t *testing.T) {
	// Property: Quantile(CDF(x)) <= x for support points, and
	// CDF(Quantile(p)) >= p for all p in (0,1).
	e, err := NewECDF([]float64{0.3, 1.1, 2.2, 2.2, 5.5, -3})
	if err != nil {
		t.Fatal(err)
	}
	err = quick.Check(func(pRaw float64) bool {
		p := math.Mod(math.Abs(pRaw), 1)
		if p == 0 {
			return true
		}
		return e.CDF(e.Quantile(p)) >= p-1e-12
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestECDFErrors(t *testing.T) {
	if _, err := NewECDF(nil); err == nil {
		t.Error("empty sample accepted")
	}
}

// AddAll folds a batch of observations.
func (w *Welford) AddAll(xs []float64) {
	for _, x := range xs {
		w.Add(x)
	}
}

// Median returns the sample median of unsorted data.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return Quantile(cp, 0.5)
}

// TestSearchGridMatchesSortSearch pins SearchGrid to sort.SearchFloat64s:
// on Linspace grids of several sizes and spans at every grid point, the
// midpoints, the neighbouring floats, values outside the ends, ±Inf and
// NaN; on one-point grids; and on random non-uniform ascending grids with
// ties, where the interpolated guess is usually wrong.
func TestSearchGridMatchesSortSearch(t *testing.T) {
	check := func(q []float64, x float64) {
		t.Helper()
		if got, want := SearchGrid(q, x), sort.SearchFloat64s(q, x); got != want {
			t.Fatalf("SearchGrid(%v, %v) = %d, sort.SearchFloat64s %d", q, x, got, want)
		}
	}
	probe := func(q []float64, extra ...float64) {
		t.Helper()
		for _, x := range append(extra, math.Inf(-1), math.Inf(1), math.NaN(), 0, math.Copysign(0, -1)) {
			check(q, x)
		}
		for i, g := range q {
			check(q, g)
			check(q, math.Nextafter(g, math.Inf(-1)))
			check(q, math.Nextafter(g, math.Inf(1)))
			if i > 0 {
				check(q, (q[i-1]+g)/2)
			}
		}
		span := q[len(q)-1] - q[0]
		check(q, q[0]-1-span)
		check(q, q[len(q)-1]+1+span)
	}
	for _, n := range []int{2, 3, 7, 50, 100, 1000} {
		for _, span := range [][2]float64{{0, 1}, {-3, 2}, {1e-9, 2e-9}, {-1e6, 1e300}, {17, 17.5}} {
			probe(Linspace(span[0], span[1], n))
		}
	}
	probe([]float64{3}, 2, 4)
	probe([]float64{-1e308, 1e308})
	probe([]float64{math.Inf(-1), 0, 1, math.Inf(1)}, 0.5)
	check(nil, 1)

	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		q := make([]float64, 1+r.Intn(40))
		for i := range q {
			switch r.Intn(4) {
			case 0:
				q[i] = math.Exp(10 * r.Float64())
			case 1:
				q[i] = float64(r.Intn(5)) // ties
			default:
				q[i] = r.NormFloat64()
			}
		}
		sort.Float64s(q)
		probe(q, r.NormFloat64(), 20*r.Float64())
	}
}
