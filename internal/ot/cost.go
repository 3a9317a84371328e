package ot

import (
	"errors"
	"fmt"
	"math"
)

// CostFn maps a source/target point pair to a non-negative cost. The paper
// uses C(x, y) = ‖x − y‖_p^p with p = 2 (squared Euclidean), under which the
// optimal plan induces the Wasserstein-2 metric and Brenier's theorem
// applies in the continuous limit (Section III).
type CostFn func(x, y float64) float64

// SquaredEuclidean is the paper's default cost, C(x,y) = (x−y)².
func SquaredEuclidean(x, y float64) float64 {
	d := x - y
	return d * d
}

// CostMatrix is a dense source×target cost matrix — the M_{u,k} = C(Q, Q)
// of Algorithm 1 line 6.
type CostMatrix struct {
	n, m int
	c    []float64 // row-major
	// maxC caches the largest entry at construction time: Sinkhorn's
	// scale-free ε default reads it on every solve, and rescanning n·m
	// entries per solve dominated small-cell solves in the seed.
	maxC float64
}

// NewCostMatrix tabulates cost(x_i, y_j) for all pairs.
func NewCostMatrix(xs, ys []float64, cost CostFn) (*CostMatrix, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return nil, errors.New("ot: cost matrix needs non-empty supports")
	}
	cm := &CostMatrix{n: len(xs), m: len(ys), c: make([]float64, len(xs)*len(ys))}
	for i, x := range xs {
		row := cm.c[i*cm.m : (i+1)*cm.m]
		for j, y := range ys {
			v := cost(x, y)
			if v < 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("ot: cost(%v,%v) = %v is invalid", x, y, v)
			}
			row[j] = v
		}
	}
	cm.sealMax()
	return cm, nil
}

// PointCostFn maps a pair of d-dimensional points to a non-negative cost.
type PointCostFn func(x, y []float64) float64

// SquaredEuclideanPoints is ‖x − y‖₂², the multivariate counterpart of
// SquaredEuclidean.
//
//otfair:testonly-ok the cost of the dense joint oracle in internal/joint's tests
func SquaredEuclideanPoints(x, y []float64) float64 {
	s := 0.0
	for k := range x {
		d := x[k] - y[k]
		s += d * d
	}
	return s
}

// NewCostMatrixPoints tabulates cost(x_i, y_j) for supports that are sets of
// d-dimensional points (e.g. flattened product grids). All points must share
// one dimension.
//
//otfair:testonly-ok builds the dense joint oracle in internal/joint's tests
func NewCostMatrixPoints(xs, ys [][]float64, cost PointCostFn) (*CostMatrix, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return nil, errors.New("ot: cost matrix needs non-empty supports")
	}
	d := len(xs[0])
	for _, p := range xs {
		if len(p) != d {
			return nil, errors.New("ot: ragged source support")
		}
	}
	for _, p := range ys {
		if len(p) != d {
			return nil, errors.New("ot: source/target dimension mismatch")
		}
	}
	cm := &CostMatrix{n: len(xs), m: len(ys), c: make([]float64, len(xs)*len(ys))}
	for i, x := range xs {
		row := cm.c[i*cm.m : (i+1)*cm.m]
		for j, y := range ys {
			v := cost(x, y)
			if v < 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("ot: cost(%v,%v) = %v is invalid", x, y, v)
			}
			row[j] = v
		}
	}
	cm.sealMax()
	return cm, nil
}

// sealMax records the largest entry; every constructor calls it exactly
// once so Max is O(1) thereafter.
func (c *CostMatrix) sealMax() {
	max := 0.0
	for _, v := range c.c {
		if v > max {
			max = v
		}
	}
	c.maxC = max
}

// Dims reports the matrix shape.
func (c *CostMatrix) Dims() (n, m int) { return c.n, c.m }

// At returns the cost of moving source state i to target state j.
func (c *CostMatrix) At(i, j int) float64 { return c.c[i*c.m+j] }

// Row returns row i of the matrix as a sub-slice (not a copy). Callers must
// treat it as read-only; the solvers use it to walk costs contiguously
// without the per-element At indirection.
func (c *CostMatrix) Row(i int) []float64 { return c.c[i*c.m : (i+1)*c.m] }

// Max returns the largest cost, cached at construction; Sinkhorn scales its
// default regularization to it on every solve.
func (c *CostMatrix) Max() float64 { return c.maxC }
