package divergence

import (
	"errors"
	"math"
	"sort"
)

// MMD implements the (squared) maximum mean discrepancy between two samples
// with a Gaussian RBF kernel — the kernel-based functional-decoupling
// family the paper points to in Section II-A (Gretton et al. 2005) as
// necessary/equivalent alternatives to its conditional-independence
// definition. MMD is a metric on distributions that needs no density
// estimation, no grid, and no floor, which makes it a useful third opinion
// next to the KL-based E estimators.

// MMDResult carries the unbiased estimate and the kernel width used.
type MMDResult struct {
	// Squared is the unbiased MMD² estimate (can be slightly negative for
	// identical distributions; that is the estimator's nature).
	Squared float64
	// Bandwidth is the RBF width actually used.
	Bandwidth float64
}

// MMDOptions configures the estimator.
type MMDOptions struct {
	// Bandwidth for the RBF kernel; 0 selects the median heuristic
	// (median pairwise distance of the pooled sample).
	Bandwidth float64
}

// MMD computes the unbiased MMD² estimate between two 1-D samples:
//
//	MMD² = E[k(x,x')] + E[k(y,y')] − 2·E[k(x,y)]
//
// with the diagonal excluded from the within-sample terms (Gretton et al.
// 2012, Eq. 3). Complexity is O((n+m)²); the fairness use case compares
// (u,s)-group columns, which are at most tens of thousands of points.
func MMD(xs, ys []float64, opts MMDOptions) (*MMDResult, error) {
	n, m := len(xs), len(ys)
	if n < 2 || m < 2 {
		return nil, errors.New("divergence: MMD needs at least 2 points per sample")
	}
	h := opts.Bandwidth
	if h <= 0 {
		h = medianHeuristic(xs, ys)
	}
	if h <= 0 {
		// Fully degenerate pooled sample: identical constants.
		return &MMDResult{Squared: 0, Bandwidth: 0}, nil
	}
	gamma := 1 / (2 * h * h)
	// All three Gram sums run over sorted copies with a band cutoff: beyond
	// reach the RBF kernel underflows float64 entirely (exp(−745) ≈ the
	// smallest denormal), so truncating the inner loops there changes the
	// estimate by strictly less than (n+m)²·1e−300 — nothing — while turning
	// concentrated samples from O(n²) into O(n·band).
	reach := math.Sqrt(745/gamma) + 1
	sx := append([]float64(nil), xs...)
	sy := append([]float64(nil), ys...)
	sort.Float64s(sx)
	sort.Float64s(sy)
	kxx := 2 * bandedGramSum(sx, gamma, reach) / (float64(n) * float64(n-1))
	kyy := 2 * bandedGramSum(sy, gamma, reach) / (float64(m) * float64(m-1))
	kxy := bandedCrossGramSum(sx, sy, gamma, reach) / (float64(n) * float64(m))
	return &MMDResult{Squared: kxx + kyy - 2*kxy, Bandwidth: h}, nil
}

// bandedGramSum returns Σ_{i<j} exp(−γ(x_i−x_j)²) over a sorted sample,
// stopping each inner scan at the underflow band.
func bandedGramSum(sorted []float64, gamma, reach float64) float64 {
	s := 0.0
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			d := sorted[j] - sorted[i]
			if d > reach {
				break
			}
			s += math.Exp(-gamma * d * d)
		}
	}
	return s
}

// bandedCrossGramSum returns Σ_ij exp(−γ(x_i−y_j)²) over two sorted
// samples with a sliding window: the window start advances monotonically
// with i, so the total work is O(n + m + pairs-within-band).
func bandedCrossGramSum(sx, sy []float64, gamma, reach float64) float64 {
	s := 0.0
	start := 0
	for _, x := range sx {
		for start < len(sy) && sy[start] < x-reach {
			start++
		}
		for j := start; j < len(sy); j++ {
			d := sy[j] - x
			if d > reach {
				break
			}
			s += math.Exp(-gamma * d * d)
		}
	}
	return s
}

// medianHeuristic returns the median absolute pairwise distance of the
// pooled sample, computed exactly for pools up to 2048 points and on a
// uniform subsample beyond that.
func medianHeuristic(xs, ys []float64) float64 {
	pool := make([]float64, 0, len(xs)+len(ys))
	pool = append(pool, xs...)
	pool = append(pool, ys...)
	const cap = 2048
	if len(pool) > cap {
		// Deterministic stride subsample keeps the heuristic stable.
		stride := len(pool) / cap
		sub := make([]float64, 0, cap)
		for i := 0; i < len(pool); i += stride {
			sub = append(sub, pool[i])
		}
		pool = sub
	}
	var dists []float64
	for i := 0; i < len(pool); i++ {
		for j := i + 1; j < len(pool); j++ {
			d := math.Abs(pool[i] - pool[j])
			if d > 0 {
				dists = append(dists, d)
			}
		}
	}
	if len(dists) == 0 {
		return 0
	}
	sort.Float64s(dists)
	return dists[len(dists)/2]
}
