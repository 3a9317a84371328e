// Package kde implements one-dimensional kernel density estimation.
//
// Algorithm 1 of the paper (Eq. 11–12) interpolates each (u,s)-conditional
// research marginal onto a uniform support Q via Gaussian-kernel KDE with
// Silverman's bandwidth; those interpolated pmfs are the inputs of the OT
// plan design. The E fairness metric (Def. 2.4) likewise compares KDE
// estimates of the s|u-conditional densities on a shared grid.
//
// The package hand-rolls everything on the standard library: kernels,
// bandwidth selectors (Silverman, Scott, and a least-squares cross-validation
// search), point and grid evaluation, and grid pmf extraction.
package kde

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"otfair/internal/stat"
	"otfair/internal/vec"
)

// Kernel identifies a smoothing kernel shape.
type Kernel int

const (
	// Gaussian is the paper's kernel (Eq. 12).
	Gaussian Kernel = iota
	// Epanechnikov is the asymptotically MSE-optimal compact kernel.
	Epanechnikov
	// Triangular is the tent kernel.
	Triangular
	// Uniform is the boxcar kernel.
	Uniform
	// Biweight is the quartic kernel.
	Biweight
)

// String names the kernel for diagnostics and CLI flags.
func (k Kernel) String() string {
	switch k {
	case Gaussian:
		return "gaussian"
	case Epanechnikov:
		return "epanechnikov"
	case Triangular:
		return "triangular"
	case Uniform:
		return "uniform"
	case Biweight:
		return "biweight"
	default:
		return fmt.Sprintf("kernel(%d)", int(k))
	}
}

// ParseKernel resolves a CLI/JSON kernel name.
func ParseKernel(name string) (Kernel, error) {
	switch name {
	case "gaussian", "":
		return Gaussian, nil
	case "epanechnikov":
		return Epanechnikov, nil
	case "triangular":
		return Triangular, nil
	case "uniform", "box":
		return Uniform, nil
	case "biweight", "quartic":
		return Biweight, nil
	default:
		return 0, fmt.Errorf("kde: unknown kernel %q", name)
	}
}

// invSqrt2Pi = 1/√(2π), the Gaussian kernel normalizer.
const invSqrt2Pi = 0.3989422804014327

// Eval evaluates the normalized kernel density at standardized distance u
// (i.e. (x−xi)/h). The caller divides by h to obtain the density.
func (k Kernel) Eval(u float64) float64 {
	switch k {
	case Gaussian:
		return invSqrt2Pi * math.Exp(-0.5*u*u)
	case Epanechnikov:
		if u < -1 || u > 1 {
			return 0
		}
		return 0.75 * (1 - u*u)
	case Triangular:
		a := math.Abs(u)
		if a > 1 {
			return 0
		}
		return 1 - a
	case Uniform:
		if u < -1 || u > 1 {
			return 0
		}
		return 0.5
	case Biweight:
		if u < -1 || u > 1 {
			return 0
		}
		q := 1 - u*u
		return 15.0 / 16.0 * q * q
	default:
		panic("kde: unknown kernel")
	}
}

// CutoffRadius reports the standardized distance beyond which the kernel is
// (numerically) zero; grid evaluation skips contributions outside it. The
// Gaussian kernel is truncated at 8.5σ where its value is ~1e-16 relative.
func (k Kernel) CutoffRadius() float64 {
	if k == Gaussian {
		return 8.5
	}
	return 1
}

// Bandwidth identifies a data-driven bandwidth rule.
type Bandwidth int

const (
	// Silverman is the paper's rule of thumb:
	// h = 0.9 · min(σ̂, IQR/1.34) · n^(−1/5).
	Silverman Bandwidth = iota
	// Scott is h = 1.06 · σ̂ · n^(−1/5).
	Scott
	// LSCV selects h by least-squares cross-validation over a log grid.
	LSCV
)

// String names the bandwidth rule.
func (b Bandwidth) String() string {
	switch b {
	case Silverman:
		return "silverman"
	case Scott:
		return "scott"
	case LSCV:
		return "lscv"
	default:
		return fmt.Sprintf("bandwidth(%d)", int(b))
	}
}

// ParseBandwidth resolves a CLI/JSON bandwidth rule name.
func ParseBandwidth(name string) (Bandwidth, error) {
	switch name {
	case "silverman", "":
		return Silverman, nil
	case "scott":
		return Scott, nil
	case "lscv", "cv":
		return LSCV, nil
	default:
		return 0, fmt.Errorf("kde: unknown bandwidth rule %q", name)
	}
}

// SilvermanBandwidth computes Silverman's rule-of-thumb bandwidth.
// For degenerate samples (zero spread) it falls back to a small positive
// width so the KDE remains a valid density concentrated at the atom.
func SilvermanBandwidth(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return 1
	}
	sigma := stat.StdDev(xs)
	iqr := stat.IQR(xs) / 1.34
	spread := sigma
	if iqr > 0 && iqr < spread {
		spread = iqr
	}
	if spread <= 0 || math.IsNaN(spread) {
		// All points identical (or IQR-degenerate with zero σ): any narrow
		// positive width represents the atom; scale-free fallback.
		m := math.Abs(stat.Mean(xs))
		if m == 0 {
			m = 1
		}
		spread = 1e-3 * m
	}
	return 0.9 * spread * math.Pow(float64(n), -0.2)
}

// ScottBandwidth computes Scott's normal-reference bandwidth.
func ScottBandwidth(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return 1
	}
	sigma := stat.StdDev(xs)
	if sigma <= 0 || math.IsNaN(sigma) {
		return SilvermanBandwidth(xs)
	}
	return 1.06 * sigma * math.Pow(float64(n), -0.2)
}

// NoiseSource is the randomness a kernel sampler needs; *rng.RNG satisfies
// it. Declared locally so kde stays dependency-free.
type NoiseSource interface {
	Float64() float64
	Norm() float64
}

// Sample draws from the kernel viewed as a density (standardized: the
// caller multiplies by the bandwidth). This powers kernel dithering in the
// repair path: perturbing a data point by h·Sample makes an atomic sample
// distributionally consistent with its KDE-smoothed pmf.
func Sample(k Kernel, r NoiseSource) float64 {
	switch k {
	case Gaussian:
		return r.Norm()
	case Uniform:
		return 2*r.Float64() - 1
	case Triangular:
		// Difference of two uniforms is triangular on [-1, 1].
		return r.Float64() - r.Float64()
	case Epanechnikov, Biweight:
		// Rejection against the boxcar majorizer; acceptance ≥ 5/8.
		peak := k.Eval(0)
		for {
			u := 2*r.Float64() - 1
			if r.Float64()*peak <= k.Eval(u) {
				return u
			}
		}
	default:
		panic("kde: unknown kernel")
	}
}

// Estimator is a fitted 1-D kernel density estimate. The sample is stored
// sorted ascending — the density is a symmetric sum over points, so order
// is irrelevant to the estimate, and sortedness lets grid evaluation skip
// every sample whose cutoff window has moved past the grid.
type Estimator struct {
	xs     []float64 // ascending
	kernel Kernel
	h      float64
}

// New fits a KDE to the sample with the given kernel and bandwidth rule.
func New(sample []float64, kernel Kernel, rule Bandwidth) (*Estimator, error) {
	if len(sample) == 0 {
		return nil, errors.New("kde: empty sample")
	}
	var h float64
	switch rule {
	case Silverman:
		h = SilvermanBandwidth(sample)
	case Scott:
		h = ScottBandwidth(sample)
	case LSCV:
		h = lscvBandwidth(sample, kernel)
	default:
		return nil, fmt.Errorf("kde: unknown bandwidth rule %v", rule)
	}
	return NewFixed(sample, kernel, h)
}

// NewFixed fits a KDE with an explicit bandwidth h > 0.
func NewFixed(sample []float64, kernel Kernel, h float64) (*Estimator, error) {
	if len(sample) == 0 {
		return nil, errors.New("kde: empty sample")
	}
	if !(h > 0) || math.IsInf(h, 0) {
		return nil, fmt.Errorf("kde: bandwidth must be positive and finite, got %v", h)
	}
	xs := append([]float64(nil), sample...)
	sort.Float64s(xs)
	return &Estimator{xs: xs, kernel: kernel, h: h}, nil
}

// Bandwidth reports the fitted bandwidth.
func (e *Estimator) Bandwidth() float64 { return e.h }

// Kernel reports the kernel in use.
func (e *Estimator) Kernel() Kernel { return e.kernel }

// N reports the sample size.
func (e *Estimator) N() int { return len(e.xs) }

// PDF evaluates the density estimate at x:
// f̂(x) = (1/nh) Σ_i K((x − x_i)/h).
func (e *Estimator) PDF(x float64) float64 {
	s := 0.0
	for _, xi := range e.xs {
		s += e.kernel.Eval((x - xi) / e.h)
	}
	return s / (float64(len(e.xs)) * e.h)
}

// EvalGrid evaluates the density on an ascending grid. It exploits the
// kernel cutoff: each sample point touches only the grid cells within
// CutoffRadius bandwidths, so the cost is O(n · r/Δ) instead of O(n·m).
// The grid must be ascending and uniformly spaced for the windowing to be
// exact; Grid pmf construction in this repository always satisfies that.
//
// The sample being sorted buys two accelerations on top of the windowing:
// samples whose window lies left of the grid are skipped, and the loop
// exits outright at the first sample whose window lies right of it. For
// the Gaussian kernel the per-window evaluation goes through the fused
// vec.GaussianAccum recurrence instead of one math.Exp per cell — the
// dominant cost of the whole metric pipeline before this path existed.
func (e *Estimator) EvalGrid(grid []float64) []float64 {
	m := len(grid)
	out := make([]float64, m)
	if m == 0 {
		return out
	}
	if m == 1 {
		out[0] = e.PDF(grid[0])
		return out
	}
	lo := grid[0]
	step := (grid[m-1] - grid[0]) / float64(m-1)
	if step <= 0 {
		// Degenerate grid: evaluate directly.
		for j, g := range grid {
			out[j] = e.PDF(g)
		}
		return out
	}
	radius := e.kernel.CutoffRadius() * e.h
	inv := 1 / (float64(len(e.xs)) * e.h)
	gaussian := e.kernel == Gaussian
	invH := 1 / e.h
	w := invSqrt2Pi * inv
	hiGrid := grid[m-1]
	for _, xi := range e.xs {
		if xi+radius < lo {
			continue // window entirely left of the grid
		}
		if xi-radius > hiGrid {
			break // sorted: every later sample is further right
		}
		jLo := int(math.Ceil((xi - radius - lo) / step))
		jHi := int(math.Floor((xi + radius - lo) / step))
		if jLo < 0 {
			jLo = 0
		}
		if jHi > m-1 {
			jHi = m - 1
		}
		if jHi < jLo {
			continue
		}
		if gaussian {
			u0 := (lo + float64(jLo)*step - xi) * invH
			vec.GaussianAccum(out[jLo:jHi+1], u0, step*invH, w)
			continue
		}
		for j := jLo; j <= jHi; j++ {
			out[j] += e.kernel.Eval((grid[j]-xi)/e.h) * inv
		}
	}
	return out
}

// GridPMF evaluates the density on the grid and normalizes it into a pmf —
// exactly the interpolated marginal p_{s,q} of Eq. (11). When the grid
// carries no mass (all samples far outside it), an error is returned: a
// support that misses its own research data indicates a design bug.
func (e *Estimator) GridPMF(grid []float64) ([]float64, error) {
	dens := e.EvalGrid(grid)
	pmf, err := stat.Normalize(dens)
	if err != nil {
		return nil, fmt.Errorf("kde: grid carries no density mass: %w", err)
	}
	return pmf, nil
}

// lscvBandwidth selects h minimizing the least-squares cross-validation
// criterion LSCV(h) = ∫f̂² − (2/n)Σ_i f̂_{−i}(x_i) over a 32-point log grid
// spanning [h_silverman/8, h_silverman*8]. The integral term is evaluated
// exactly for the Gaussian kernel and by grid quadrature otherwise.
func lscvBandwidth(xs []float64, kernel Kernel) float64 {
	n := len(xs)
	if n < 3 {
		return SilvermanBandwidth(xs)
	}
	h0 := SilvermanBandwidth(xs)
	if !(h0 > 0) {
		return 1
	}
	// Sort once: lscvScore builds Estimators around the slice directly and
	// EvalGrid requires ascending samples for its early-exit windowing.
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	best, bestScore := h0, math.Inf(1)
	const gridPoints = 32
	for i := 0; i < gridPoints; i++ {
		// log grid from h0/8 to h0*8
		f := float64(i) / float64(gridPoints-1)
		h := h0 / 8 * math.Pow(64, f)
		score := lscvScore(sorted, kernel, h)
		if score < bestScore {
			bestScore, best = score, h
		}
	}
	return best
}

// lscvScore evaluates the cross-validation criterion for one bandwidth.
// xs must be sorted ascending: both quadratic terms are symmetric in (i,j),
// so each is computed over i<j pairs only, and the inner loop stops at the
// kernel cutoff — O(n·band) instead of O(n²) for concentrated samples.
func lscvScore(xs []float64, kernel Kernel, h float64) float64 {
	n := float64(len(xs))
	// ∫ f̂² term.
	var integral float64
	if kernel == Gaussian {
		// Exact: ∫ f̂² = (1/n²) Σ_ij φ_{√2 h}(x_i − x_j).
		c := invSqrt2Pi / (math.Sqrt2 * h)
		reach := Gaussian.CutoffRadius() * math.Sqrt2 * h
		off := 0.0
		for i := range xs {
			for j := i + 1; j < len(xs); j++ {
				if xs[j]-xs[i] > reach {
					break
				}
				d := (xs[i] - xs[j]) / (math.Sqrt2 * h)
				off += c * math.Exp(-0.5*d*d)
			}
		}
		integral = (n*c + 2*off) / (n * n)
	} else {
		lo, hi, _ := stat.MinMax(xs)
		pad := kernel.CutoffRadius() * h
		grid := stat.Linspace(lo-pad, hi+pad, 512)
		est := &Estimator{xs: xs, kernel: kernel, h: h}
		dens := est.EvalGrid(grid)
		dx := grid[1] - grid[0]
		for _, d := range dens {
			integral += d * d * dx
		}
	}
	// Leave-one-out term: Σ_{i≠j} K((x_i−x_j)/h) over symmetric pairs.
	reach := kernel.CutoffRadius() * h
	var pairs float64
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			if xs[j]-xs[i] > reach {
				break
			}
			pairs += kernel.Eval((xs[i] - xs[j]) / h)
		}
	}
	loo := 2 * pairs / ((n - 1) * h)
	return integral - 2*loo/n
}
