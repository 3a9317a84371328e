// Package divergence implements the divergence measures used to quantify
// s|u-dependence: the floored Kullback–Leibler divergence and its
// symmetrized form (Definition 2.4 of the paper), and the kernel MMD. The
// closed-form Gaussian KL and k-nearest-neighbour oracles the grid
// estimators are validated against live with the tests.
package divergence

import (
	"errors"
	"fmt"
	"math"

	"otfair/internal/vec"
)

// DefaultFloor is the probability floor applied to grid pmfs before taking
// log-ratios. The paper does not specify its convention; the floor keeps the
// estimator finite when the two conditionals have (numerically) disjoint
// tails — exactly the regime of well-separated unrepaired sub-groups.
const DefaultFloor = 1e-12

// errLength is returned when two pmfs have different support sizes.
var errLength = errors.New("divergence: pmf length mismatch")

// validatePair checks the two pmfs share a support size and are usable.
func validatePair(p, q []float64) error {
	if len(p) != len(q) {
		return errLength
	}
	if len(p) == 0 {
		return errors.New("divergence: empty pmfs")
	}
	for i := range p {
		if p[i] < 0 || q[i] < 0 || math.IsNaN(p[i]) || math.IsNaN(q[i]) {
			return fmt.Errorf("divergence: invalid mass at state %d (p=%v q=%v)", i, p[i], q[i])
		}
	}
	return nil
}

// floored returns a copy of p with every entry raised to at least floor and
// renormalized to unit mass.
func floored(p []float64, floor float64) []float64 {
	out := make([]float64, len(p))
	total := 0.0
	for i, v := range p {
		if v < floor {
			v = floor
		}
		out[i] = v
		total += v
	}
	vec.Scale(1/total, out)
	return out
}

// KLFloored returns the Kullback–Leibler divergence D(p‖q) in nats between
// two discrete pmfs on a shared support, flooring both at floor.
func KLFloored(p, q []float64, floor float64) (float64, error) {
	if err := validatePair(p, q); err != nil {
		return 0, err
	}
	if !(floor > 0) {
		return 0, errors.New("divergence: floor must be positive")
	}
	pf := floored(p, floor)
	qf := floored(q, floor)
	d := 0.0
	for i := range pf {
		d += pf[i] * math.Log(pf[i]/qf[i])
	}
	if d < 0 {
		// KL is non-negative; tiny negatives are floating-point round-off.
		d = 0
	}
	return d, nil
}

// SymKLFloored returns the symmetrized KL of Definition 2.4,
// ½·D(p‖q) + ½·D(q‖p), with both pmfs floored at floor.
func SymKLFloored(p, q []float64, floor float64) (float64, error) {
	a, err := KLFloored(p, q, floor)
	if err != nil {
		return 0, err
	}
	b, err := KLFloored(q, p, floor)
	if err != nil {
		return 0, err
	}
	return 0.5*a + 0.5*b, nil
}
