package ot

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"otfair/internal/rng"
)

func TestSinkhornDivergenceZeroOnIdentical(t *testing.T) {
	m := MustMeasure([]float64{0, 1, 2, 3}, []float64{1, 2, 2, 1})
	s, err := SinkhornDivergence(m, m, SinkhornOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s) > 1e-6 {
		t.Errorf("S(µ,µ) = %v", s)
	}
}

func TestSinkhornDivergenceTracksW2(t *testing.T) {
	// For small epsilon, S_ε ≈ W2²; check order-of-magnitude agreement and
	// monotonicity in separation.
	r := rng.New(301)
	base := randomMeasure(r, 12)
	prev := -1.0
	for _, shift := range []float64{0.5, 1.0, 2.0} {
		pts := make([]float64, base.Len())
		for i, p := range base.Points() {
			pts[i] = p + shift
		}
		shifted := MustMeasure(pts, base.Weights())
		s, err := SinkhornDivergence(base, shifted, SinkhornOptions{Epsilon: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if s <= prev {
			t.Errorf("S_ε not increasing with separation at shift %v: %v <= %v", shift, s, prev)
		}
		prev = s
		w2, _ := Wasserstein2(base, shifted)
		if s < 0.3*w2*w2 || s > 3*w2*w2 {
			t.Errorf("shift %v: S_ε = %v far from W2² = %v", shift, s, w2*w2)
		}
	}
}

func TestSinkhornDivergenceNonNegative(t *testing.T) {
	r := rng.New(302)
	for trial := 0; trial < 10; trial++ {
		a := randomMeasure(r, 2+r.IntN(8))
		b := randomMeasure(r, 2+r.IntN(8))
		s, err := SinkhornDivergence(a, b, SinkhornOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if s < 0 {
			t.Errorf("trial %d: S_ε = %v < 0", trial, s)
		}
	}
}

func TestSinkhornDivergenceNilMeasure(t *testing.T) {
	m := MustMeasure([]float64{0}, []float64{1})
	if _, err := SinkhornDivergence(nil, m, SinkhornOptions{}); err == nil {
		t.Error("nil measure accepted")
	}
}

// SinkhornDivergence computes the debiased entropic divergence
//
//	S_ε(µ, ν) = OT_ε(µ, ν) − ½·OT_ε(µ, µ) − ½·OT_ε(ν, ν)
//
// (Genevay et al. 2018), where OT_ε is the entropically regularized
// transport cost realized by the rounded Sinkhorn plan under the squared
// Euclidean ground cost. Unlike the raw entropic cost, S_ε vanishes for
// µ = ν and interpolates between W2² (ε→0) and MMD-like behaviour (ε→∞);
// the repository uses it as a scale-aware diagnostic for how far a repaired
// marginal sits from its target.
func SinkhornDivergence(mu, nu *Measure, opts SinkhornOptions) (float64, error) {
	if mu == nil || nu == nil {
		return 0, errors.New("ot: nil measure")
	}
	cross, err := entropicCost(mu, nu, opts)
	if err != nil {
		return 0, fmt.Errorf("ot: cross term: %w", err)
	}
	self0, err := entropicCost(mu, mu, opts)
	if err != nil {
		return 0, fmt.Errorf("ot: µ self term: %w", err)
	}
	self1, err := entropicCost(nu, nu, opts)
	if err != nil {
		return 0, fmt.Errorf("ot: ν self term: %w", err)
	}
	s := cross - 0.5*self0 - 0.5*self1
	if s < 0 && s > -1e-9 {
		s = 0 // debiasing round-off
	}
	return s, nil
}

// entropicCost runs Sinkhorn between two measures and returns the realized
// transport cost of the (rounded, feasible) plan.
func entropicCost(mu, nu *Measure, opts SinkhornOptions) (float64, error) {
	cost, err := NewCostMatrix(mu.Points(), nu.Points(), SquaredEuclidean)
	if err != nil {
		return 0, err
	}
	// Share one epsilon scale across the three terms: default from the
	// cross-cost scale would differ per term and break the debiasing, so
	// resolve it once against the larger spread.
	if opts.Epsilon <= 0 {
		spread := math.Max(measureSpread(mu), measureSpread(nu))
		opts.Epsilon = 1e-2 * (1 + spread*spread)
	}
	res, err := Sinkhorn(mu.Weights(), nu.Weights(), cost, opts)
	if err != nil {
		return 0, err
	}
	return res.Plan.Cost(cost.At), nil
}

func measureSpread(m *Measure) float64 {
	pts := m.Points()
	return pts[len(pts)-1] - pts[0]
}
