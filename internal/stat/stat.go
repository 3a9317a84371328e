// Package stat provides the descriptive statistics the repair pipeline
// depends on: moments for Silverman's bandwidth rule (Eq. 12 of the paper),
// quantiles for the exact 1-D Wasserstein machinery, ranges for the
// interpolated supports of Algorithm 1, and streaming accumulators for the
// archival (torrent) code paths where data cannot be held in memory.
package stat

import (
	"errors"
	"math"
	"sort"

	"otfair/internal/vec"
)

// ErrEmpty is returned by reducers that are undefined on empty input.
var ErrEmpty = errors.New("stat: empty sample")

// Mean returns the arithmetic mean. It returns NaN on empty input so that
// callers composing pipelines see the poison value rather than a silent 0.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return vec.Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased (n−1) sample variance; NaN if n < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	return vec.SumSqDev(xs, Mean(xs)) / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation; NaN if n < 2.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the extrema of xs. It returns an error on empty input:
// Algorithm 1 line 4 builds the interpolation support from these values and
// an empty (u,s) research group must fail loudly at design time.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = vec.MinMax(xs)
	return lo, hi, nil
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) of sorted data using linear
// interpolation between order statistics (the "type 7" estimator that R and
// NumPy default to). sorted must be ascending; Quantile panics if p is
// outside [0, 1].
func Quantile(sorted []float64, p float64) float64 {
	if p < 0 || p > 1 {
		panic("stat: quantile probability out of [0,1]")
	}
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	i := int(math.Floor(h))
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := h - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// IQR returns the interquartile range (Q3 − Q1) of unsorted data. It feeds
// Silverman's robust spread estimate.
func IQR(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return Quantile(cp, 0.75) - Quantile(cp, 0.25)
}

// Covariance returns the unbiased sample covariance of two equal-length
// samples; NaN if lengths differ or n < 2.
func Covariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	s := 0.0
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(len(xs)-1)
}

// Correlation returns the Pearson correlation coefficient; NaN when either
// marginal is degenerate.
func Correlation(xs, ys []float64) float64 {
	sx, sy := StdDev(xs), StdDev(ys)
	if sx == 0 || sy == 0 {
		return math.NaN()
	}
	return Covariance(xs, ys) / (sx * sy)
}

// Linspace returns n uniformly spaced points from lo to hi inclusive —
// exactly the support construction of Algorithm 1 line 4:
// ζ_i = (n−i)/(n−1)·lo + (i−1)/(n−1)·hi. It panics if n < 2 when lo ≠ hi;
// n == 1 is allowed only for a degenerate (lo == hi) support.
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		panic("stat: Linspace with n <= 0")
	}
	if n == 1 {
		if lo != hi {
			panic("stat: Linspace n == 1 with lo != hi")
		}
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	// Pin the endpoint exactly: downstream binary searches use Q[n-1] as the
	// clamping bound and must see the true maximum.
	out[n-1] = hi
	return out
}

// SearchGrid returns sort.SearchFloat64s(q, x) — the first index with
// q[i] >= x, len(q) when there is none (NaN included) — for any ascending
// q. It guesses the index by interpolating x between q[0] and q[n-1], then
// walks at most two steps to the lower bound; on a Linspace grid, which is
// every designed support, the guess is off by at most one. A grid far from
// uniform falls back to the binary search, so the answer never depends on
// the grid's shape, only the time does.
func SearchGrid(q []float64, x float64) int {
	n := len(q)
	if n == 0 || x <= q[0] {
		return 0
	}
	if !(x <= q[n-1]) {
		return n
	}
	// Now q[0] < x <= q[n-1], so the answer g has q[g-1] < x <= q[g] with
	// 1 <= g <= n-1, and every step below keeps g in that range.
	t := (x - q[0]) / (q[n-1] - q[0]) * float64(n-1)
	g := n - 1
	if !(t >= 1) { // NaN from infinite endpoints lands here too
		g = 1
	} else if t < float64(n-1) {
		g = int(t)
	}
	for step := 0; step < 3; step++ {
		switch {
		case q[g] < x:
			g++
		case q[g-1] >= x:
			g--
		default:
			return g
		}
	}
	return sort.SearchFloat64s(q, x)
}

// Normalize scales non-negative weights into a probability vector in place
// and returns it. It returns ErrEmpty for empty input and an error when the
// total mass is not positive or any entry is negative/NaN.
func Normalize(w []float64) ([]float64, error) {
	if len(w) == 0 {
		return nil, ErrEmpty
	}
	total := 0.0
	for _, v := range w {
		if v < 0 || math.IsNaN(v) {
			return nil, errors.New("stat: Normalize with negative or NaN weight")
		}
		total += v
	}
	if total <= 0 {
		return nil, errors.New("stat: Normalize with zero total mass")
	}
	vec.Scale(1/total, w)
	return w, nil
}

// Column extracts feature column k from a row-major matrix. It is the
// bridge between the dataset's d-dimensional records and the per-feature
// (k-stratified) repair of Algorithm 1.
func Column(rows [][]float64, k int) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = r[k]
	}
	return out
}
