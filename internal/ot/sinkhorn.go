package ot

import (
	"errors"
	"fmt"
	"math"

	"otfair/internal/vec"
)

// SinkhornOptions configures the entropically regularized solvers.
type SinkhornOptions struct {
	// Epsilon is the entropic regularization strength. If zero, it defaults
	// to 1e-2 times the maximum cost, a scale-free choice that keeps the
	// Gibbs kernel well conditioned. SinkhornOp ignores it: its kernel
	// already encodes ε.
	Epsilon float64
	// MaxIter bounds the number of Sinkhorn sweeps (default 10000).
	MaxIter int
	// Tol is the L1 marginal-error stopping threshold (default 1e-9).
	Tol float64
}

// validate rejects option values the `<= 0 means default` convention would
// silently wave through: NaN compares false against every threshold, so a
// NaN epsilon would otherwise survive defaulting and poison the Gibbs
// kernel, and a NaN tolerance would disable the stopping rule entirely.
func (o SinkhornOptions) validate() error {
	if math.IsNaN(o.Epsilon) || math.IsInf(o.Epsilon, 0) {
		return fmt.Errorf("ot: Sinkhorn epsilon %v is not finite", o.Epsilon)
	}
	if math.IsNaN(o.Tol) || math.IsInf(o.Tol, 0) {
		return fmt.Errorf("ot: Sinkhorn tolerance %v is not finite", o.Tol)
	}
	return nil
}

// withDefaults fills the iteration defaults and, given a cost matrix, the
// scale-aware ε default.
func (o SinkhornOptions) withDefaults(cost *CostMatrix) SinkhornOptions {
	if o.Epsilon <= 0 && cost != nil {
		o.Epsilon = 1e-2 * (1 + cost.Max())
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	return o
}

// SinkhornResult reports the solver outcome alongside the plan.
type SinkhornResult struct {
	Plan *Plan
	// Iterations actually performed.
	Iterations int
	// MarginalErr is the final L1 deviation of the plan's source marginal.
	MarginalErr float64
	// Tol is the stopping tolerance the solve ran with, after defaulting.
	Tol float64
	// Converged records whether MarginalErr fell below Tol before MaxIter.
	Converged bool
}

// Sinkhorn solves the entropically regularized OT problem
//
//	min_π Σ c_ij π_ij + ε Σ π_ij (log π_ij − 1)
//
// over an explicit cost matrix — the O(n_Q²/ε²)-complexity alternative
// discussed in Section IV-A1 of the paper. Zero-mass marginal states are
// dropped and restored, matching the exact solvers' convention.
//
// It is the dense front end of the one scaling loop SinkhornOp also runs:
// the Gibbs kernel is tabulated once over the compacted cost in
// log-stabilised form, the shared loop iterates u ← a./(K v), v ← b./(Kᵀ u)
// on it, and the plan u_i·K_ij·v_j is materialized in the kernel's own
// storage, rounded onto the transport polytope and stripped of its sub-ulp
// atoms (TruncateSubUlp).
//
// The returned plan is dense over the positive-mass states, so it has up to
// n·m atoms, unlike the sparse exact plans.
func Sinkhorn(a, b []float64, cost *CostMatrix, opts SinkhornOptions) (*SinkhornResult, error) {
	n, m := cost.Dims()
	if len(a) != n || len(b) != m {
		return nil, fmt.Errorf("ot: marginals %d/%d do not match cost %d×%d", len(a), len(b), n, m)
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(cost)
	aw, bw, err := normalizeMarginals(a, b)
	if err != nil {
		return nil, err
	}
	rowIdx, awc := compactPositive(aw)
	colIdx, bwc := compactPositive(bw)

	k := newStabilizedKernel(cost, rowIdx, colIdx, opts.Epsilon)
	u, v, _, iter, errL1 := sinkhornScaling(awc, bwc, k, k.absorb, opts)

	// Materialize the plan over the kernel's storage and round it onto the
	// feasible polytope (Altschuler, Niles-Weed & Rigollet 2017). Without
	// the rounding an unconverged plan can report a transport cost below
	// the true optimum because it is not a coupling at all.
	nn, mm := len(rowIdx), len(colIdx)
	pi := make([][]float64, nn)
	for i := range pi {
		pi[i] = k.k[i*mm : (i+1)*mm]
		for j, vj := range v {
			pi[i][j] *= u[i] * vj
		}
	}
	roundToFeasible(pi, awc, bwc)
	entries := make([]Entry, 0, nn*mm)
	for i, row := range pi {
		TruncateSubUlp(row)
		for j, mass := range row {
			if mass > 0 {
				entries = append(entries, Entry{I: rowIdx[i], J: colIdx[j], Mass: mass})
			}
		}
	}
	plan, err := NewPlan(n, m, entries)
	if err != nil {
		return nil, err
	}
	return &SinkhornResult{
		Plan:        plan,
		Iterations:  iter,
		MarginalErr: errL1,
		Tol:         opts.Tol,
		Converged:   errL1 < opts.Tol,
	}, nil
}

// normalizeMarginals validates two marginals (see normalizePMF) and their
// balance, and returns them normalized.
func normalizeMarginals(a, b []float64) (aw, bw []float64, err error) {
	aw, sa, err := normalizePMF(a)
	if err != nil {
		return nil, nil, fmt.Errorf("ot: source marginal: %w", err)
	}
	bw, sb, err := normalizePMF(b)
	if err != nil {
		return nil, nil, fmt.Errorf("ot: target marginal: %w", err)
	}
	if math.Abs(sa-sb) > 1e-6*(sa+sb) {
		return nil, nil, fmt.Errorf("ot: unbalanced problem (source mass %v, target mass %v)", sa, sb)
	}
	return aw, bw, nil
}

// normalizePMF rejects negative or non-finite masses and a zero total, and
// returns p divided by its total alongside the total.
func normalizePMF(p []float64) (w []float64, total float64, err error) {
	for i, x := range p {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, 0, fmt.Errorf("invalid mass %v at state %d", x, i)
		}
		total += x
	}
	if total <= 0 {
		return nil, 0, errors.New("zero total mass")
	}
	w = make([]float64, len(p))
	for i, x := range p {
		w[i] = x / total
	}
	return w, total, nil
}

// compactPositive compacts p in place to its positive entries, in order,
// and returns their original indices alongside the compacted prefix of p.
func compactPositive(p []float64) (idx []int, vals []float64) {
	idx = make([]int, 0, len(p))
	vals = p[:0]
	for i, x := range p {
		if x > 0 {
			idx = append(idx, i)
			vals = append(vals, x)
		}
	}
	return idx, vals
}

// absorbBound is the scaling range of the log-stabilised loop (Schmitzer
// 2019, arXiv 1610.06519): once an entry of u or v leaves
// [1/absorbBound, absorbBound], the loop folds both scalings into the
// kernel's log-potentials and restarts them at 1. Within the range no
// product u_i·K̃_ij·v_j can overflow, and at the default ε the potentials
// stay well inside it, so the default path never re-tabulates.
const absorbBound = 1e50

// sinkhornScaling is the one Sinkhorn iteration of the package:
//
//	u ← a ./ (K v),   v ← b ./ (Kᵀ u),
//
// on pmfs a and b. After the v-update the column marginals are exact and
// the next u-sweep's K v doubles as the row-marginal check, so the L1 error
// ‖u ⊙ (K v) − a‖₁ costs one fused sweep and no kernel application. A tiny
// floor on the kernel applications keeps the ratios finite; the error is
// measured on the unfloored K v, so an underflowed row never converges. A
// non-nil absorb stabilises small ε: whenever a scaling leaves the absorbBound
// range it is called to fold u and v into op (K̃_ij ← u_i·K̃_ij·v_j) and
// reset both to ones. Only the kernel Sinkhorn builds for itself absorbs;
// caller-owned operators are never mutated. It returns the scalings of the
// last iterate (column marginals exact), the K v that checked it, the
// iteration count and the final error.
func sinkhornScaling(a, b []float64, op KernelOp, absorb func(u, v []float64), opts SinkhornOptions) (u, v, kv []float64, iter int, errL1 float64) {
	const tiny = 1e-300
	n, m := op.Dims()
	u = make([]float64, n)
	v = make([]float64, m)
	for j := range v {
		v[j] = 1
	}
	kv = make([]float64, n)
	ktu := make([]float64, m)
	stabilise := func(x []float64) {
		if absorb != nil && !inScalingRange(x) {
			absorb(u, v)
		}
	}

	op.Apply(kv, v)
	vec.Floor(kv, tiny)
	errL1 = math.Inf(1)
	for ; iter < opts.MaxIter; iter++ {
		vec.DivTo(u, a, kv)
		stabilise(u)
		op.ApplyT(ktu, u)
		vec.Floor(ktu, tiny)
		vec.DivTo(v, b, ktu)
		stabilise(v)
		op.Apply(kv, v)
		// The error is taken before the floor: a row whose K v underflowed
		// carries no mass, and flooring it first would report u_i·tiny = a_i.
		errL1 = 0
		for i, ui := range u {
			errL1 += math.Abs(ui*kv[i] - a[i])
		}
		vec.Floor(kv, tiny)
		if errL1 < opts.Tol {
			iter++
			break
		}
	}
	return u, v, kv, iter, errL1
}

func inScalingRange(x []float64) bool {
	for _, s := range x {
		if s > absorbBound || s < 1/absorbBound {
			return false
		}
	}
	return true
}

// stabilizedKernel is the dense Gibbs kernel Sinkhorn iterates on, kept in
// log-stabilised form over the compacted positive-mass states:
//
//	K̃_ij = exp(α_i + β_j − c_ij/ε),
//
// with ε-scaled log-potentials α, β. α starts at the row minima of c/ε,
// so every row of the first tabulation holds a unit entry however small ε
// is; β starts at zero, so the first iterate equals the plain scaling
// loop's. Absorbing re-tabulates from the cost, never from the previous
// kernel, so rounding does not accumulate across absorptions.
type stabilizedKernel struct {
	DenseKernel
	cost           *CostMatrix
	rowIdx, colIdx []int
	invEps         float64
	alpha, beta    []float64
}

func newStabilizedKernel(cost *CostMatrix, rowIdx, colIdx []int, eps float64) *stabilizedKernel {
	nn, mm := len(rowIdx), len(colIdx)
	k := &stabilizedKernel{
		DenseKernel: DenseKernel{n: nn, m: mm, k: make([]float64, nn*mm)},
		cost:        cost,
		rowIdx:      rowIdx,
		colIdx:      colIdx,
		invEps:      1 / eps,
		alpha:       make([]float64, nn),
		beta:        make([]float64, mm),
	}
	for i, ri := range rowIdx {
		src := cost.Row(ri)
		minC := math.Inf(1)
		for _, cj := range colIdx {
			minC = math.Min(minC, src[cj])
		}
		k.alpha[i] = minC * k.invEps
	}
	k.tabulate()
	return k
}

func (k *stabilizedKernel) tabulate() {
	for i, ri := range k.rowIdx {
		src := k.cost.Row(ri)
		dst := k.k[i*k.m : (i+1)*k.m]
		for j, cj := range k.colIdx {
			dst[j] = math.Exp(k.alpha[i] + k.beta[j] - src[cj]*k.invEps)
		}
	}
}

func (k *stabilizedKernel) absorb(u, v []float64) {
	for i, ui := range u {
		k.alpha[i] += math.Log(ui)
		u[i] = 1
	}
	for j, vj := range v {
		k.beta[j] += math.Log(vj)
		v[j] = 1
	}
	k.tabulate()
}

// roundToFeasible projects an approximate plan onto the transport polytope
// {π ≥ 0 : π1 = a, πᵀ1 = b} in place. Rows are scaled down to at most their
// target mass, then columns likewise, then the remaining deficit is filled
// with the rank-one matrix err_a·err_bᵀ/‖err_a‖₁, which is non-negative and
// restores both marginals exactly.
func roundToFeasible(pi [][]float64, a, b []float64) {
	for i, row := range pi {
		if mass := vec.Sum(row); mass > a[i] {
			vec.Scale(a[i]/mass, row)
		}
	}
	for j, mass := range columnMass(pi, len(b)) {
		if mass > b[j] {
			for _, row := range pi {
				row[j] *= b[j] / mass
			}
		}
	}
	errA := make([]float64, len(a))
	deficit := 0.0
	for i, row := range pi {
		errA[i] = math.Max(a[i]-vec.Sum(row), 0)
		deficit += errA[i]
	}
	errB := columnMass(pi, len(b))
	for j, mass := range errB {
		errB[j] = math.Max(b[j]-mass, 0)
	}
	if deficit > 0 {
		for i, row := range pi {
			if errA[i] > 0 {
				vec.Axpy(errA[i]/deficit, errB, row)
			}
		}
	}
}

// columnMass returns the column sums of pi, accumulated in row order.
func columnMass(pi [][]float64, m int) []float64 {
	mass := make([]float64, m)
	for _, row := range pi {
		vec.Axpy(1, row, mass)
	}
	return mass
}
