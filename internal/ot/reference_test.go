package ot

// Test references that no production path calls: the exact Wasserstein
// distances and their monotone-cost chain, plan marginals and marginal
// checks, the dense plan view, and measure constructors for literals.

import (
	"errors"
	"fmt"
	"math"
)

// WassersteinP returns W_p(µ, ν) for p ≥ 1 between two 1-D discrete
// measures, computed exactly through the monotone (quantile) coupling:
// W_p^p = Σ (coupling mass)·|x−y|^p — the metric of Eq. (6).
func WassersteinP(mu, nu *Measure, p float64) (float64, error) {
	if p < 1 {
		return 0, fmt.Errorf("ot: Wasserstein order must be >= 1, got %v", p)
	}
	c, err := MonotoneCost(mu, nu, PowerCost(p))
	if err != nil {
		return 0, err
	}
	return math.Pow(c, 1/p), nil
}

// Wasserstein2 returns W₂(µ, ν), the distance the paper's barycentric
// target is defined under.
func Wasserstein2(mu, nu *Measure) (float64, error) {
	return WassersteinP(mu, nu, 2)
}

// Wasserstein1 returns W₁(µ, ν) (earth-mover's distance).
func Wasserstein1(mu, nu *Measure) (float64, error) {
	return WassersteinP(mu, nu, 1)
}

// EmpiricalWasserstein returns W_p between the empirical measures of two
// samples without constructing Measure values; for equal-size samples it
// reduces to the mean p-th power of sorted-order differences.
func EmpiricalWasserstein(xs, ys []float64, p float64) (float64, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return 0, errors.New("ot: empty sample")
	}
	mx, err := Empirical(xs)
	if err != nil {
		return 0, err
	}
	my, err := Empirical(ys)
	if err != nil {
		return 0, err
	}
	return WassersteinP(mx, my, p)
}

// GaussianW2 returns the closed-form W₂ distance between two univariate
// normals: W₂² = (m0−m1)² + (σ0−σ1)². It is the oracle used by the solver
// tests.
func GaussianW2(m0, s0, m1, s1 float64) float64 {
	dm := m0 - m1
	ds := s0 - s1
	return math.Sqrt(dm*dm + ds*ds)
}

// MonotoneCost returns the optimal transport cost between two 1-D measures
// under the given cost without materializing a Plan, streaming over the
// coupling's atoms. It is the work-horse behind the exact Wasserstein
// distances.
func MonotoneCost(mu, nu *Measure, cost CostFn) (float64, error) {
	if mu == nil || nu == nil {
		return 0, errors.New("ot: nil measure")
	}
	xs, ys := mu.Points(), nu.Points()
	a := append([]float64(nil), mu.Weights()...)
	b := append([]float64(nil), nu.Weights()...)
	total := 0.0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= 0 {
			i++
			continue
		}
		if b[j] <= 0 {
			j++
			continue
		}
		mass := a[i]
		if b[j] < mass {
			mass = b[j]
		}
		total += mass * cost(xs[i], ys[j])
		a[i] -= mass
		b[j] -= mass
		const eps = 1e-15
		if a[i] <= eps && b[j] <= eps {
			i++
			j++
		} else if a[i] <= eps {
			i++
		} else {
			j++
		}
	}
	return total, nil
}

// Absolute is the L1 cost |x−y| (Wasserstein-1).
func Absolute(x, y float64) float64 { return math.Abs(x - y) }

// PowerCost returns the cost |x−y|^p for p ≥ 1; p outside [1, ∞) panics
// because Wp is not a metric below p = 1.
//
// The integer exponents the ablations sweep get multiply-only fast paths:
// p = 1 is Absolute (one abs, no multiply — the W1 ground cost), p = 2 is
// SquaredEuclidean (one multiply, no abs — the paper's default, under which
// the monotone solver is exact), and p = 3 / p = 4 are closed with two or
// three multiplies. Only non-integer exponents pay for math.Pow.
func PowerCost(p float64) CostFn {
	if p < 1 || math.IsNaN(p) || math.IsInf(p, 0) {
		panic(fmt.Sprintf("ot: PowerCost needs p >= 1, got %v", p))
	}
	switch p {
	case 1:
		return Absolute
	case 2:
		return SquaredEuclidean
	case 3:
		return func(x, y float64) float64 {
			d := math.Abs(x - y)
			return d * d * d
		}
	case 4:
		return func(x, y float64) float64 {
			d := x - y
			d *= d
			return d * d
		}
	}
	return func(x, y float64) float64 { return math.Pow(math.Abs(x-y), p) }
}

// Empirical builds the uniform empirical measure (1/n) Σ δ_{x_i} of Eq. (4).
func Empirical(sample []float64) (*Measure, error) {
	w := make([]float64, len(sample))
	for i := range w {
		w[i] = 1
	}
	return NewMeasure(sample, w)
}

// MustMeasure is NewMeasure that panics on error, for statically valid
// literals in tests and examples.
func MustMeasure(points, weights []float64) *Measure {
	m, err := NewMeasure(points, weights)
	if err != nil {
		panic(err)
	}
	return m
}

// Dense materializes the full n×m matrix.
func (p *Plan) Dense() [][]float64 {
	out := make([][]float64, p.n)
	buf := make([]float64, p.n*p.m)
	for i := range out {
		out[i], buf = buf[:p.m], buf[p.m:]
	}
	for _, e := range p.entries {
		out[e.I][e.J] += e.Mass
	}
	return out
}

// CheckMarginals verifies that the plan's marginals match the given source
// and target pmfs within tol (L∞). It is the invariant behind Eq. (5)'s
// constraint set Π(µ0, µ1) and is exercised heavily by the property tests.
func (p *Plan) CheckMarginals(source, target []float64, tol float64) error {
	if len(source) != p.n || len(target) != p.m {
		return errors.New("ot: marginal length mismatch")
	}
	sm := p.SourceMarginal()
	for i := range sm {
		if math.Abs(sm[i]-source[i]) > tol {
			return fmt.Errorf("ot: source marginal %d is %v, want %v", i, sm[i], source[i])
		}
	}
	tm := p.TargetMarginal()
	for j := range tm {
		if math.Abs(tm[j]-target[j]) > tol {
			return fmt.Errorf("ot: target marginal %d is %v, want %v", j, tm[j], target[j])
		}
	}
	return nil
}

// CheckMarginals verifies the plan's marginals against the given source and
// target pmfs within tol (L∞) — the same contract as Plan.CheckMarginals.
func (p *FactoredPlan) CheckMarginals(source, target []float64, tol float64) error {
	n, m := p.op.Dims()
	if len(source) != n || len(target) != m {
		return errors.New("ot: marginal length mismatch")
	}
	for i, got := range p.rowMass {
		if math.Abs(got-source[i]) > tol {
			return fmt.Errorf("ot: source marginal %d is %v, want %v", i, got, source[i])
		}
	}
	tm := p.TargetMarginal()
	for j, got := range tm {
		if math.Abs(got-target[j]) > tol {
			return fmt.Errorf("ot: target marginal %d is %v, want %v", j, got, target[j])
		}
	}
	return nil
}

// SourceMarginal returns the push-forward onto the source states
// (T_{x0}♯π in the paper's notation).
func (p *Plan) SourceMarginal() []float64 {
	out := make([]float64, p.n)
	for _, e := range p.entries {
		out[e.I] += e.Mass
	}
	return out
}

// TargetMarginal returns the push-forward onto the target states.
func (p *Plan) TargetMarginal() []float64 {
	out := make([]float64, p.m)
	for _, e := range p.entries {
		out[e.J] += e.Mass
	}
	return out
}

// SourceMarginal returns u ⊙ (K v) — the cached row masses, copied.
func (p *FactoredPlan) SourceMarginal() []float64 {
	return append([]float64(nil), p.rowMass...)
}

// TargetMarginal returns v ⊙ (Kᵀ u).
func (p *FactoredPlan) TargetMarginal() []float64 {
	_, m := p.op.Dims()
	out := make([]float64, m)
	p.op.ApplyT(out, p.u)
	for j := range out {
		out[j] *= p.v[j]
	}
	return out
}
