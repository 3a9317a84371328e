package ot

import (
	"errors"
	"fmt"
	"math"

	"otfair/internal/vec"
)

// KernelOp is a Gibbs kernel K = exp(−C/ε) exposed as a linear operator:
// the only access the scaling-form OT iterations (iterative Bregman
// projections, scaling Sinkhorn) need. Abstracting the kernel behind its
// matvec is what lets product-grid problems swap the dense O(n²) matrix for
// the Kronecker factorization K = K₁ ⊗ … ⊗ K_d, whose application costs
// O(n·Σ_k n_k) and whose storage is Σ_k n_k² instead of n².
//
// Implementations must be safe for concurrent Apply/ApplyT/Row calls: the
// barycenter fans its per-measure projections across goroutines over one
// shared operator.
type KernelOp interface {
	// Dims reports the (source, target) state counts.
	Dims() (n, m int)
	// Apply fills dst = K·x (len(x) = m, len(dst) = n).
	Apply(dst, x []float64)
	// ApplyT fills dst = Kᵀ·x (len(x) = n, len(dst) = m).
	ApplyT(dst, x []float64)
	// Row materializes kernel row i into dst (length m) — the lazy
	// plan-row path of FactoredPlan.
	Row(dst []float64, i int)
}

// DenseKernel is the materialized Gibbs kernel over an explicit cost
// matrix — the reference KernelOp the separable implementations are
// differentially pinned against.
type DenseKernel struct {
	n, m int
	k    []float64 // row-major
}

// NewDenseGibbs tabulates K_ij = exp(−c_ij/ε) for the given cost matrix.
// ε must be positive and finite; the scale-aware defaulting happens in the
// solvers' option handling, not here.
func NewDenseGibbs(cost *CostMatrix, eps float64) (*DenseKernel, error) {
	if cost == nil {
		return nil, errors.New("ot: nil cost matrix")
	}
	if !(eps > 0) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("ot: Gibbs kernel needs positive finite epsilon, got %v", eps)
	}
	n, m := cost.Dims()
	dk := &DenseKernel{n: n, m: m, k: make([]float64, n*m)}
	invEps := 1 / eps
	for i := 0; i < n; i++ {
		src := cost.Row(i)
		dst := dk.k[i*m : (i+1)*m]
		for j, c := range src {
			dst[j] = math.Exp(-c * invEps)
		}
	}
	return dk, nil
}

// Dims reports the kernel shape.
func (k *DenseKernel) Dims() (n, m int) { return k.n, k.m }

// Apply fills dst = K·x.
func (k *DenseKernel) Apply(dst, x []float64) {
	if len(dst) != k.n || len(x) != k.m {
		panic("ot: DenseKernel.Apply shape mismatch")
	}
	vec.MatVec(dst, k.k, x)
}

// ApplyT fills dst = Kᵀ·x by row-major axpy accumulation, so the kernel is
// still walked contiguously.
func (k *DenseKernel) ApplyT(dst, x []float64) {
	if len(dst) != k.m || len(x) != k.n {
		panic("ot: DenseKernel.ApplyT shape mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < k.n; i++ {
		vec.Axpy(x[i], k.k[i*k.m:(i+1)*k.m], dst)
	}
}

// Row copies kernel row i into dst.
func (k *DenseKernel) Row(dst []float64, i int) {
	if len(dst) != k.m {
		panic("ot: DenseKernel.Row length mismatch")
	}
	copy(dst, k.k[i*k.m:(i+1)*k.m])
}

// SeparableKernel is the Kronecker-factored Gibbs kernel on a product
// support: for states indexed row-major over d axes with n_k states each,
// the squared-Euclidean cost splits as c(x, y) = Σ_k (x_k − y_k)², so
//
//	K = exp(−C/ε) = K₁ ⊗ K₂ ⊗ … ⊗ K_d,   (K_k)_{ab} = exp(−(g_k[a]−g_k[b])²/ε).
//
// K·x is then d axis contractions (vec.ContractAxis) costing O(n·Σ_k n_k)
// with Σ_k n_k² stored entries — never the n² dense kernel. Every factor is
// symmetric, so Apply and ApplyT coincide. Axes with one state contribute a
// 1×1 identity factor (exp(0) = 1) and cost one pass-through sweep.
type SeparableKernel struct {
	dims    []int
	factors [][]float64 // factors[k] is dims[k]×dims[k] row-major
	inner   []int       // inner[k] = Π_{j>k} dims[j]
	n       int
}

// NewSeparableGibbs builds the factored Gibbs kernel for the squared-
// Euclidean cost on the product of the given grids. ε must be positive and
// finite. The per-axis factor entries are exp(−(a−b)²/ε) with the same
// subtraction/square arithmetic as SquaredEuclideanPoints, so a dense
// kernel over the product-point cost matrix agrees with the factored
// product up to float multiplication order.
func NewSeparableGibbs(grids [][]float64, eps float64) (*SeparableKernel, error) {
	if len(grids) == 0 {
		return nil, errors.New("ot: separable kernel needs at least one axis")
	}
	if !(eps > 0) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("ot: Gibbs kernel needs positive finite epsilon, got %v", eps)
	}
	factors := make([][]float64, len(grids))
	invEps := 1 / eps
	for k, g := range grids {
		nk := len(g)
		if nk == 0 {
			return nil, fmt.Errorf("ot: axis %d is empty", k)
		}
		f := make([]float64, nk*nk)
		for a, x := range g {
			row := f[a*nk : (a+1)*nk]
			for b, y := range g {
				d := x - y
				row[b] = math.Exp(-(d * d) * invEps)
			}
		}
		factors[k] = f
	}
	return NewSeparableFactors(factors)
}

// NewSeparableFactors assembles a separable kernel from prebuilt per-axis
// factors (each square, row-major, with non-negative finite entries) — the
// deserialization entry point for factored plans.
func NewSeparableFactors(factors [][]float64) (*SeparableKernel, error) {
	if len(factors) == 0 {
		return nil, errors.New("ot: separable kernel needs at least one factor")
	}
	sk := &SeparableKernel{
		dims:    make([]int, len(factors)),
		factors: make([][]float64, len(factors)),
		inner:   make([]int, len(factors)),
		n:       1,
	}
	for k, f := range factors {
		nk := int(math.Sqrt(float64(len(f))))
		if nk == 0 || nk*nk != len(f) {
			return nil, fmt.Errorf("ot: factor %d has %d entries, not a positive square", k, len(f))
		}
		for _, v := range f {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("ot: factor %d has invalid entry %v", k, v)
			}
		}
		sk.dims[k] = nk
		sk.factors[k] = f
		sk.n *= nk
	}
	inner := 1
	for k := len(factors) - 1; k >= 0; k-- {
		sk.inner[k] = inner
		inner *= sk.dims[k]
	}
	return sk, nil
}

// Dims reports the kernel shape (square: the product-state count on both
// sides).
func (k *SeparableKernel) Dims() (n, m int) { return k.n, k.n }

// Factors returns the per-axis row-major factor matrices (read-only) — the
// serialization surface of factored plans.
func (k *SeparableKernel) Factors() [][]float64 { return k.factors }

// Apply fills dst = K·x as d successive axis contractions, ping-ponging
// through one pooled scratch buffer so repeated applications allocate
// nothing. Trivial axes (one state, factor value 1) are skipped entirely;
// they act as the identity.
func (k *SeparableKernel) Apply(dst, x []float64) {
	if len(dst) != k.n || len(x) != k.n {
		panic("ot: SeparableKernel.Apply shape mismatch")
	}
	scratch := vec.GetBufRaw(k.n)
	defer vec.PutBuf(scratch)
	cur := x
	var out []float64
	// Count non-trivial contractions to land the final write in dst.
	live := 0
	for _, f := range k.factors {
		if len(f) != 1 || f[0] != 1 {
			live++
		}
	}
	if live == 0 {
		copy(dst, x)
		return
	}
	// Alternate targets so the live-th (final) contraction writes dst:
	// odd count starts at dst, even count at scratch.
	toDst := live%2 == 1
	for a, f := range k.factors {
		if len(f) == 1 && f[0] == 1 {
			continue
		}
		if toDst {
			out = dst
		} else {
			out = scratch
		}
		vec.ContractAxis(out, cur, f, k.dims[a], k.inner[a])
		cur = out
		toDst = !toDst
	}
}

// ApplyT is Apply: every factor is symmetric, so Kᵀ = K.
func (k *SeparableKernel) ApplyT(dst, x []float64) { k.Apply(dst, x) }

// Row materializes kernel row i into dst by expanding the outer product of
// the per-axis factor rows selected by i's multi-index — O(n·d) instead of
// touching any n² object.
func (k *SeparableKernel) Row(dst []float64, i int) {
	if len(dst) != k.n {
		panic("ot: SeparableKernel.Row length mismatch")
	}
	// Decode i's multi-index, most-significant axis first.
	rem := i
	written := 1
	dst[0] = 1
	for a, nk := range k.dims {
		ia := rem / k.inner[a]
		rem -= ia * k.inner[a]
		row := k.factors[a][ia*nk : (ia+1)*nk]
		// Expand: dst[:written·nk] = outer(dst[:written], row).
		for b := written - 1; b >= 0; b-- {
			v := dst[b]
			out := dst[b*nk : (b+1)*nk]
			for c, f := range row {
				out[c] = v * f
			}
		}
		written *= nk
	}
}
