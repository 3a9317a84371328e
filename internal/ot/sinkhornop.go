package ot

import (
	"errors"
	"fmt"
	"math"

	"otfair/internal/vec"
)

// RowPlan is the read surface a repairer needs from a transport plan: row
// masses and row conditionals to sample repairs from.
// Both the sparse materialized *Plan and the scaling-form *FactoredPlan
// implement it, which is what lets the joint repair run over 10⁴-state
// product supports whose dense plans (n² atoms) could never be built.
type RowPlan interface {
	// Dims reports the (source, target) state counts.
	Dims() (n, m int)
	// RowMass returns the total mass of source row i.
	RowMass(i int) float64
	// AppendRowConditional appends row i normalized into a conditional
	// pmf over the target states to targets and probs; ok == false marks a
	// zero-mass row, which appends nothing.
	AppendRowConditional(targets []int32, probs []float64, i int) ([]int32, []float64, bool)
	// TotalMass returns the total transported mass.
	TotalMass() float64
}

// Compile-time interface conformance for both plan representations.
var (
	_ RowPlan = (*Plan)(nil)
	_ RowPlan = (*FactoredPlan)(nil)
)

// FactoredPlan is an entropic transport plan kept in Sinkhorn scaling form,
//
//	π = diag(u) · K · diag(v),
//
// where K is a Gibbs KernelOp. Nothing quadratic in the state count is ever
// stored: the plan is the two scaling vectors plus the operator (for a
// SeparableKernel, Σ_k n_k² factor entries). Rows are materialized lazily on
// demand — RowConditional expands row i in O(n·d), truncates sub-ulp atoms
// exactly like the dense Sinkhorn plans, and returns the compacted
// conditional — so archival repair over product supports touches only the
// rows its records actually snap to.
type FactoredPlan struct {
	op      KernelOp
	u, v    []float64
	rowMass []float64 // u ⊙ K v, cached at construction
}

// NewFactoredPlan assembles a scaling-form plan and caches its row masses.
// The scalings must be non-negative and finite and sized to the operator.
func NewFactoredPlan(op KernelOp, u, v []float64) (*FactoredPlan, error) {
	if op == nil {
		return nil, errors.New("ot: nil kernel operator")
	}
	n, m := op.Dims()
	if m > math.MaxInt32 {
		// Row conditionals carry target states as int32.
		return nil, fmt.Errorf("ot: %d target states exceed the int32 state range", m)
	}
	if len(u) != n || len(v) != m {
		return nil, fmt.Errorf("ot: scalings %d/%d do not match kernel %d×%d", len(u), len(v), n, m)
	}
	for _, s := range [][]float64{u, v} {
		for _, x := range s {
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("ot: invalid scaling entry %v", x)
			}
		}
	}
	fp := &FactoredPlan{
		op: op,
		u:  append([]float64(nil), u...),
		v:  append([]float64(nil), v...),
	}
	fp.rowMass = make([]float64, n)
	kv := make([]float64, n)
	op.Apply(kv, fp.v)
	for i := range fp.rowMass {
		fp.rowMass[i] = fp.u[i] * kv[i]
	}
	return fp, nil
}

// Dims reports the (source, target) state counts.
func (p *FactoredPlan) Dims() (n, m int) { return p.op.Dims() }

// Kernel returns the plan's Gibbs operator.
func (p *FactoredPlan) Kernel() KernelOp { return p.op }

// Scalings returns the plan's scaling vectors (read-only) — the
// serialization surface.
func (p *FactoredPlan) Scalings() (u, v []float64) { return p.u, p.v }

// RowMass returns the cached total mass of source row i.
func (p *FactoredPlan) RowMass(i int) float64 { return p.rowMass[i] }

// row expands plan row i into dst: dst[j] = u_i · K_ij · v_j.
func (p *FactoredPlan) row(dst []float64, i int) {
	p.op.Row(dst, i)
	ui := p.u[i]
	for j, kij := range dst {
		dst[j] = ui * kij * p.v[j]
	}
}

// AppendRowConditional materializes row i, truncates its sub-ulp atoms
// (folding them into the dominant atom, exactly the TruncateSubUlp
// convention the dense Sinkhorn plans apply), and appends the compacted
// conditional pmf to targets and probs. Zero-mass rows (a zero-mass source
// state) append nothing and return ok == false.
func (p *FactoredPlan) AppendRowConditional(targets []int32, probs []float64, i int) ([]int32, []float64, bool) {
	_, m := p.op.Dims()
	buf := vec.GetBufRaw(m)
	defer vec.PutBuf(buf)
	p.row(buf, i)
	total := 0.0
	for _, x := range buf {
		total += x
	}
	if total <= 0 {
		return targets, probs, false
	}
	TruncateSubUlp(buf)
	for j, mass := range buf {
		if mass > 0 {
			targets = append(targets, int32(j))
			probs = append(probs, mass/total)
		}
	}
	return targets, probs, true
}

// TotalMass returns the total transported mass.
func (p *FactoredPlan) TotalMass() float64 { return vec.Sum(p.rowMass) }

// SinkhornOpResult reports the scaling-domain solver outcome.
type SinkhornOpResult struct {
	Plan *FactoredPlan
	// Iterations actually performed.
	Iterations int
	// MarginalErr is the L1 row-marginal deviation at the last convergence
	// check. The returned plan folds one final source rebalance into its
	// scalings, so this bounds the plan's residual target-side deviation.
	MarginalErr float64
	// Tol is the stopping tolerance the solve ran with, after defaulting.
	Tol float64
	// Converged records whether MarginalErr fell below Tol before MaxIter.
	Converged bool
}

// SinkhornOp solves the entropically regularized OT problem over a prebuilt
// Gibbs kernel operator with the package's scaling loop,
//
//	u ← a ./ (K v),   v ← b ./ (Kᵀ u),
//
// the same iteration Sinkhorn runs on its dense kernel. No cost matrix and
// no materialized plan: each iteration is two operator applications plus
// O(n) sweeps, so a separable kernel on a product grid solves in
// O(n·Σ_k n_k) per iteration where a dense kernel pays O(n²). The
// regularization ε is encoded in the operator; opts.Epsilon is ignored.
//
// Zero-mass marginal states simply pin their scaling to zero (no compaction
// is needed — the operator is never indexed by mass). The operator is never
// mutated, so there is no log-stabilisation here: callers keep ε on the
// scale of the cost (the joint design's default is 5e-3·(1 + max c)), where
// the scalings stay far from the float range.
func SinkhornOp(a, b []float64, op KernelOp, opts SinkhornOptions) (*SinkhornOpResult, error) {
	if op == nil {
		return nil, errors.New("ot: nil kernel operator")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n, m := op.Dims()
	if len(a) != n || len(b) != m {
		return nil, fmt.Errorf("ot: marginals %d/%d do not match kernel %d×%d", len(a), len(b), n, m)
	}
	opts = opts.withDefaults(nil)
	aw, bw, err := normalizeMarginals(a, b)
	if err != nil {
		return nil, err
	}
	u, v, kv, iter, errL1 := sinkhornScaling(aw, bw, op, nil, opts)
	// Fold the final row rebalance into the scalings: u ← a ./ (K v) makes
	// the source marginal exact by construction, leaving the residual error
	// entirely on the target side (bounded by errL1).
	vec.DivTo(u, aw, kv)

	plan, err := NewFactoredPlan(op, u, v)
	if err != nil {
		return nil, err
	}
	return &SinkhornOpResult{
		Plan:        plan,
		Iterations:  iter,
		MarginalErr: errL1,
		Tol:         opts.Tol,
		Converged:   errL1 < opts.Tol,
	}, nil
}
