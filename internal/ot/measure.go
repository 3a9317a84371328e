// Package ot implements the optimal-transport machinery of the paper from
// scratch: discrete measures, transport plans, an exact 1-D monotone solver,
// a transportation network-simplex solver for general costs, log-stabilised
// scaling Sinkhorn for entropic regularization, and the W2 barycenters (quantile-based and iterative-Bregman) that define
// the paper's fair repair target ν (Eq. 7).
package ot

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Measure is a discrete probability measure on a one-dimensional support:
// Σ Weights = 1, with Points ascending. It is the µ_s of Eq. (4) and the
// interpolated marginal p_{u,s,k} of Eq. (11).
type Measure struct {
	points  []float64
	weights []float64
}

// NewMeasure builds a measure from support points and non-negative weights,
// sorting the support and normalizing the weights to unit mass. Duplicate
// support points are merged.
func NewMeasure(points, weights []float64) (*Measure, error) {
	if len(points) == 0 {
		return nil, errors.New("ot: measure needs at least one support point")
	}
	if len(points) != len(weights) {
		return nil, fmt.Errorf("ot: %d points but %d weights", len(points), len(weights))
	}
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return points[idx[a]] < points[idx[b]] })

	ps := make([]float64, 0, len(points))
	ws := make([]float64, 0, len(points))
	total := 0.0
	for _, j := range idx {
		p, w := points[j], weights[j]
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("ot: non-finite support point %v", p)
		}
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("ot: negative or NaN weight %v at point %v", w, p)
		}
		total += w
		if len(ps) > 0 && ps[len(ps)-1] == p {
			ws[len(ws)-1] += w
			continue
		}
		ps = append(ps, p)
		ws = append(ws, w)
	}
	if total <= 0 {
		return nil, errors.New("ot: measure has zero total mass")
	}
	for i := range ws {
		ws[i] /= total
	}
	return &Measure{points: ps, weights: ws}, nil
}

// OnGrid builds a measure from a pmf on an ascending grid without copying
// surprises: the grid must be strictly ascending and the pmf non-negative
// with positive total. Zero-weight grid points are retained so that plans
// computed against the grid keep their indexing aligned with Q.
func OnGrid(grid, pmf []float64) (*Measure, error) {
	if len(grid) == 0 {
		return nil, errors.New("ot: empty grid")
	}
	if len(grid) != len(pmf) {
		return nil, fmt.Errorf("ot: grid has %d points but pmf has %d", len(grid), len(pmf))
	}
	total := 0.0
	for i := range grid {
		if i > 0 && grid[i] <= grid[i-1] {
			return nil, fmt.Errorf("ot: grid not strictly ascending at index %d", i)
		}
		if pmf[i] < 0 || math.IsNaN(pmf[i]) {
			return nil, fmt.Errorf("ot: negative or NaN pmf mass at index %d", i)
		}
		total += pmf[i]
	}
	if total <= 0 {
		return nil, errors.New("ot: pmf has zero total mass")
	}
	ps := append([]float64(nil), grid...)
	ws := make([]float64, len(pmf))
	for i := range pmf {
		ws[i] = pmf[i] / total
	}
	return &Measure{points: ps, weights: ws}, nil
}

// Len reports the support size.
func (m *Measure) Len() int { return len(m.points) }

// Points returns the ascending support (not a copy; callers must not
// mutate).
func (m *Measure) Points() []float64 { return m.points }

// Weights returns the pmf aligned with Points (not a copy; callers must not
// mutate).
func (m *Measure) Weights() []float64 { return m.weights }

// Mean returns the expectation of the measure.
func (m *Measure) Mean() float64 {
	s := 0.0
	for i := range m.points {
		s += m.points[i] * m.weights[i]
	}
	return s
}

// Variance returns the variance of the measure.
func (m *Measure) Variance() float64 {
	mean := m.Mean()
	s := 0.0
	for i := range m.points {
		d := m.points[i] - mean
		s += d * d * m.weights[i]
	}
	return s
}

// CDF evaluates the right-continuous CDF at x.
func (m *Measure) CDF(x float64) float64 {
	acc := 0.0
	for i, p := range m.points {
		if p > x {
			break
		}
		acc += m.weights[i]
	}
	return acc
}

// Quantile evaluates the generalized inverse CDF: the smallest support
// point whose cumulative mass reaches p.
func (m *Measure) Quantile(p float64) float64 {
	if p <= 0 {
		return m.points[0]
	}
	acc := 0.0
	for i := range m.points {
		acc += m.weights[i]
		if acc >= p-1e-15 {
			return m.points[i]
		}
	}
	return m.points[len(m.points)-1]
}

// cumulative returns the cumulative mass vector (len = support size), with
// the final entry pinned to exactly 1.
func (m *Measure) cumulative() []float64 {
	cum := make([]float64, len(m.weights))
	acc := 0.0
	for i, w := range m.weights {
		acc += w
		cum[i] = acc
	}
	cum[len(cum)-1] = 1
	return cum
}
