package ot

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"otfair/internal/vec"
)

// validateBaryWeights checks the barycentric mixing weights λ.
func validateBaryWeights(k int, lambdas []float64) error {
	if len(lambdas) != k {
		return fmt.Errorf("ot: %d barycenter weights for %d measures", len(lambdas), k)
	}
	total := 0.0
	for _, l := range lambdas {
		if l < 0 || math.IsNaN(l) {
			return errors.New("ot: negative or NaN barycenter weight")
		}
		total += l
	}
	if math.Abs(total-1) > 1e-9 {
		return fmt.Errorf("ot: barycenter weights sum to %v, want 1", total)
	}
	return nil
}

// QuantileBarycenter computes the exact W₂ barycenter of 1-D measures with
// mixing weights λ (Eq. 7 of the paper, the geodesic point ν_t for two
// measures with λ = (1−t, t)). In one dimension the barycenter's quantile
// function is the λ-weighted average of the input quantile functions
// (Agueh & Carlier 2011), so the barycenter is supported on at most
// Σ_s n_s − (k−1) atoms: one per interval between merged CDF breakpoints.
func QuantileBarycenter(measures []*Measure, lambdas []float64) (*Measure, error) {
	if len(measures) == 0 {
		return nil, errors.New("ot: no measures")
	}
	for _, m := range measures {
		if m == nil || m.Len() == 0 {
			return nil, errors.New("ot: nil or empty measure")
		}
	}
	if err := validateBaryWeights(len(measures), lambdas); err != nil {
		return nil, err
	}
	// Merge all cumulative levels.
	levels := []float64{0}
	for _, m := range measures {
		levels = append(levels, m.cumulative()...)
	}
	sort.Float64s(levels)
	// Deduplicate.
	uniq := levels[:1]
	for _, l := range levels[1:] {
		if l > uniq[len(uniq)-1]+1e-15 {
			uniq = append(uniq, l)
		}
	}
	if uniq[len(uniq)-1] < 1 {
		uniq = append(uniq, 1)
	}

	points := make([]float64, 0, len(uniq)-1)
	weights := make([]float64, 0, len(uniq)-1)
	for i := 0; i+1 < len(uniq); i++ {
		mass := uniq[i+1] - uniq[i]
		if mass <= 0 {
			continue
		}
		tm := 0.5 * (uniq[i] + uniq[i+1])
		pos := 0.0
		for s, m := range measures {
			pos += lambdas[s] * m.Quantile(tm)
		}
		points = append(points, pos)
		weights = append(weights, mass)
	}
	return NewMeasure(points, weights)
}

// Geodesic returns the point ν_t on the W₂ geodesic between µ0 and µ1
// (Eq. 7); t = 0.5 is the paper's fair repair target.
func Geodesic(mu0, mu1 *Measure, t float64) (*Measure, error) {
	if t < 0 || t > 1 || math.IsNaN(t) {
		return nil, fmt.Errorf("ot: geodesic parameter t = %v outside [0,1]", t)
	}
	return QuantileBarycenter([]*Measure{mu0, mu1}, []float64{1 - t, t})
}

// ProjectOntoGrid redistributes a measure's mass onto an ascending grid by
// splitting each atom linearly between its two neighbouring grid states —
// the same two-neighbour convention Algorithm 2 uses for data points, so
// the projection is mean-preserving for interior atoms. Mass outside the
// grid range is clamped to the boundary states. The result is a pmf aligned
// with the grid.
func ProjectOntoGrid(m *Measure, grid []float64) ([]float64, error) {
	if m == nil || m.Len() == 0 {
		return nil, errors.New("ot: nil or empty measure")
	}
	if len(grid) == 0 {
		return nil, errors.New("ot: empty grid")
	}
	for i := 1; i < len(grid); i++ {
		if grid[i] <= grid[i-1] {
			return nil, fmt.Errorf("ot: grid not strictly ascending at index %d", i)
		}
	}
	pmf := make([]float64, len(grid))
	for i, pos := range m.points {
		mass := m.weights[i]
		switch {
		case pos <= grid[0]:
			pmf[0] += mass
		case pos >= grid[len(grid)-1]:
			pmf[len(grid)-1] += mass
		default:
			// Largest q with grid[q] <= pos.
			q := sort.SearchFloat64s(grid, pos)
			if q == len(grid) || grid[q] > pos {
				q--
			}
			if grid[q] == pos {
				pmf[q] += mass
				continue
			}
			tau := (pos - grid[q]) / (grid[q+1] - grid[q])
			pmf[q] += mass * (1 - tau)
			pmf[q+1] += mass * tau
		}
	}
	return pmf, nil
}

// GridBarycenter computes the W₂ barycenter of pmfs that share an ascending
// support grid and projects it back onto that grid: the ν_{u,k} of
// Algorithm 1 line 9. This is the default barycenter used by the repair.
func GridBarycenter(grid []float64, pmfs [][]float64, lambdas []float64) ([]float64, error) {
	if len(pmfs) == 0 {
		return nil, errors.New("ot: no pmfs")
	}
	measures := make([]*Measure, len(pmfs))
	for s, pmf := range pmfs {
		m, err := OnGrid(grid, pmf)
		if err != nil {
			return nil, fmt.Errorf("ot: pmf %d: %w", s, err)
		}
		measures[s] = m
	}
	bary, err := QuantileBarycenter(measures, lambdas)
	if err != nil {
		return nil, err
	}
	return ProjectOntoGrid(bary, grid)
}

// BregmanOptions configures the iterative-Bregman fixed-support barycenter.
type BregmanOptions struct {
	// Epsilon is the entropic regularization (default 5e-3·maxCost). It is
	// ignored by BregmanBarycenterOp, whose kernel already encodes it.
	Epsilon float64
	// MaxIter bounds the outer iterations (default 2000).
	MaxIter int
	// Tol is the L1 change in the barycenter between sweeps that stops the
	// iteration (default 1e-10).
	Tol float64
	// Workers caps the per-measure projection fan-out (0 = GOMAXPROCS).
	// The k measures' scaling updates are independent within a sweep, so
	// large supports run them concurrently; the barycenter accumulation
	// stays serial in measure order, keeping results independent of the
	// worker count.
	Workers int
}

// validate rejects option values that would silently corrupt the iteration:
// the `<= 0 means default` convention is NaN-blind (NaN compares false
// against everything), so NaN or ±Inf must be caught explicitly before a
// NaN epsilon reaches the Gibbs kernel or a NaN tolerance disables the
// stopping rule.
func (o BregmanOptions) validate() error {
	if math.IsNaN(o.Epsilon) || math.IsInf(o.Epsilon, 0) {
		return fmt.Errorf("ot: Bregman epsilon %v is not finite", o.Epsilon)
	}
	if math.IsNaN(o.Tol) || math.IsInf(o.Tol, 0) {
		return fmt.Errorf("ot: Bregman tolerance %v is not finite", o.Tol)
	}
	return nil
}

// BregmanBarycenter computes the entropically regularized W₂ barycenter of
// pmfs on a shared grid by iterative Bregman projections (Benamou et al.
// 2015). It is the regularized alternative mentioned in Section VI of the
// paper and is exposed as a design ablation; the exact quantile method is
// the default.
func BregmanBarycenter(grid []float64, pmfs [][]float64, lambdas []float64, opts BregmanOptions) ([]float64, error) {
	cost, err := SquaredCostMatrix(grid)
	if err != nil {
		return nil, err
	}
	return BregmanBarycenterCost(cost, pmfs, lambdas, opts)
}

// BregmanBarycenterCost is BregmanBarycenter over an arbitrary shared
// support described only by its pairwise cost matrix, which must be square.
// This is the dense entry point for multivariate supports, where the states
// are points in R^d rather than a 1-D grid; it materializes the n² Gibbs
// kernel and runs BregmanBarycenterOp over it. Product-grid callers should
// build a SeparableKernel and call BregmanBarycenterOp directly, which
// never materializes the dense kernel at all.
func BregmanBarycenterCost(cost *CostMatrix, pmfs [][]float64, lambdas []float64, opts BregmanOptions) ([]float64, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n, m := cost.Dims()
	if n != m {
		return nil, fmt.Errorf("ot: barycenter needs a square cost, got %d×%d", n, m)
	}
	if opts.Epsilon <= 0 {
		opts.Epsilon = 5e-3 * (1 + cost.Max())
	}
	op, err := NewDenseGibbs(cost, opts.Epsilon)
	if err != nil {
		return nil, err
	}
	return BregmanBarycenterOp(op, pmfs, lambdas, opts)
}

// bregmanParallelMin is the support size above which the per-measure
// projections fan out across goroutines; below it the scaling updates are
// microseconds and the fan-out overhead would dominate.
const bregmanParallelMin = 1 << 12

// BregmanBarycenterOp computes the entropically regularized barycenter over
// an arbitrary Gibbs kernel operator — the generalized inner loop behind
// BregmanBarycenter/BregmanBarycenterCost. The kernel must be square and
// symmetric (both Gibbs constructions here are: the cost is symmetric on a
// shared support), and already encodes the regularization ε, so
// opts.Epsilon is ignored.
//
// The iteration is allocation-free after setup: all scaling vectors, the
// kernel-application outputs and the log-domain accumulator are
// preallocated once and the element sweeps run through the vec kernels.
// The k per-measure projections (u_s = p_s ./ K v_s, then K u_s) are
// independent within a sweep and fan out across opts.Workers goroutines on
// large supports; the geometric-mean accumulation that follows is serial in
// measure order, so results do not depend on the worker count.
func BregmanBarycenterOp(op KernelOp, pmfs [][]float64, lambdas []float64, opts BregmanOptions) ([]float64, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	k := len(pmfs)
	if k == 0 {
		return nil, errors.New("ot: no pmfs")
	}
	if err := validateBaryWeights(k, lambdas); err != nil {
		return nil, err
	}
	n, m := op.Dims()
	if n != m {
		return nil, fmt.Errorf("ot: barycenter needs a square kernel, got %d×%d", n, m)
	}
	for s, pmf := range pmfs {
		if len(pmf) != n {
			return nil, fmt.Errorf("ot: pmf %d has %d states, support has %d", s, len(pmf), n)
		}
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 2000
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-10
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > k {
		workers = k
	}
	if n < bregmanParallelMin {
		workers = 1
	}

	const tiny = 1e-300

	// Normalize inputs defensively; the tiny floor after every kernel
	// application keeps the divisions finite even where a pmf is zero (the
	// entropic barycenter has full support anyway).
	p := make([][]float64, k)
	for s := range pmfs {
		var err error
		if p[s], _, err = normalizePMF(pmfs[s]); err != nil {
			return nil, fmt.Errorf("ot: pmf %d: %w", s, err)
		}
	}

	// Per-measure state and scratch, allocated once: the iteration itself
	// allocates nothing, which is what keeps long solves (MaxIter in the
	// thousands) off the allocator entirely.
	v := make([][]float64, k)
	u := make([][]float64, k)
	kv := make([][]float64, k)
	ktu := make([][]float64, k)
	for s := 0; s < k; s++ {
		v[s] = make([]float64, n)
		for j := range v[s] {
			v[s][j] = 1
		}
		u[s] = make([]float64, n)
		kv[s] = make([]float64, n)
		ktu[s] = make([]float64, n)
	}
	logBary := make([]float64, n)
	bary := make([]float64, n)
	prev := make([]float64, n)

	// project runs one measure's scaling update: kv = K v (floored),
	// u = p ./ kv, ktu = K u (floored). K is symmetric, so the transposed
	// application of the classic iteration is Apply itself.
	project := func(s int) {
		op.Apply(kv[s], v[s])
		vec.Floor(kv[s], tiny)
		vec.DivTo(u[s], p[s], kv[s])
		op.Apply(ktu[s], u[s])
		vec.Floor(ktu[s], tiny)
	}

	for it := 0; it < opts.MaxIter; it++ {
		// u_s = p_s ./ (K v_s);  bary = Π_s (K u_s)^{λ_s}.
		if workers == 1 {
			for s := 0; s < k; s++ {
				project(s)
			}
		} else {
			parallelRanges(workers, k, func(w, lo, hi int) {
				for s := lo; s < hi; s++ {
					project(s)
				}
			})
		}
		for j := range logBary {
			logBary[j] = 0
		}
		for s := 0; s < k; s++ {
			vec.AxpyLog(lambdas[s], ktu[s], logBary)
		}
		vec.ExpTo(bary, logBary)
		for s := 0; s < k; s++ {
			vec.DivTo(v[s], bary, ktu[s])
		}
		diff := vec.SumAbsDiff(bary, prev)
		copy(prev, bary)
		if it > 0 && diff < opts.Tol {
			break
		}
	}
	total := vec.Sum(bary)
	if total <= 0 || math.IsNaN(total) {
		return nil, errors.New("ot: Bregman barycenter collapsed to zero mass (epsilon too small)")
	}
	vec.Scale(1/total, bary)
	return bary, nil
}

// parallelRanges splits [0, n) into workers contiguous chunks and runs fn
// on each concurrently, blocking until all return.
func parallelRanges(workers, n int, fn func(w, lo, hi int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
