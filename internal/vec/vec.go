// Package vec is the shared flat-[]float64 vector-kernel layer under the
// repair pipeline's hot loops: KDE grid evaluation, the Gibbs-kernel
// applications and scaling sweeps of the entropic OT solvers, and the
// reduction-heavy statistics and divergence estimators.
//
// Every kernel operates on contiguous slices with no per-element function
// indirection, so the compiler can keep the loops branch-light and
// bounds-check-eliminated. Numerical contracts are documented per kernel;
// all of them agree with the obvious scalar loop to within a few ulps, and
// the differential tests in the consuming packages pin the composed
// pipelines to the pre-vec reference implementations within 1e-9.
package vec

import "math"

// Sum returns Σ x_i (0 for empty input).
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Dot returns Σ x_i·y_i over the common prefix length. It panics when the
// lengths differ, because every caller in this repository aligns its
// operands and a silent truncation would hide a real bug.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("vec: Dot length mismatch")
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy performs y += alpha·x element-wise (the BLAS axpy).
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("vec: Axpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale performs x *= alpha element-wise.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// MinMax returns the extrema of xs in one pass; (+Inf, −Inf) for empty
// input so that callers folding several slices can chain the bounds.
func MinMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// SumAbsDiff returns Σ |x_i − y_i| — the L1 distance used by the Sinkhorn
// marginal-error check and total-variation style reductions.
func SumAbsDiff(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("vec: SumAbsDiff length mismatch")
	}
	s := 0.0
	for i, v := range x {
		s += math.Abs(v - y[i])
	}
	return s
}

// SumSqDev returns Σ (x_i − m)² — the centered second moment kernel behind
// variance computations.
func SumSqDev(xs []float64, m float64) float64 {
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s
}

// MatVec fills dst[i] = Σ_j a[i·m+j]·x[j] for the row-major n×m matrix a,
// with n = len(dst) and m = len(x) — the dense kernel behind ot.DenseKernel's
// Gibbs applications. Each row is accumulated in ascending j, exactly like
// the pre-vec scalar loop in the Bregman barycenter, so porting that solver
// onto this kernel changes no output bit.
func MatVec(dst, a, x []float64) {
	n, m := len(dst), len(x)
	if len(a) != n*m {
		panic("vec: MatVec shape mismatch")
	}
	for i := 0; i < n; i++ {
		row := a[i*m : (i+1)*m]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// ContractAxis applies the n×n row-major factor f along one axis of a
// flattened tensor: viewing x as shape (outer, n, inner) with row-major
// strides (len(x) = outer·n·inner),
//
//	dst[o, a, i] = Σ_b f[a·n+b] · x[o, b, i].
//
// This is the axis contraction that turns a Kronecker-product operator
// (K₁ ⊗ … ⊗ K_d)·x into d passes costing O(N·n_k) each instead of the O(N²)
// dense matvec — the separable Gibbs fast path of the joint design. Two
// stride regimes keep the inner loops contiguous and bounds-check-free:
// inner == 1 runs a Dot-style ascending accumulation per (o, a) pair over
// adjacent memory; inner > 1 runs Axpy-style fused sweeps over the
// contiguous length-inner blocks, overwriting on b == 0 so dst needs no
// pre-zeroing. dst and x must not alias.
func ContractAxis(dst, x, f []float64, n, inner int) {
	if n <= 0 || inner <= 0 {
		panic("vec: ContractAxis needs positive dims")
	}
	if len(dst) != len(x) || len(x)%(n*inner) != 0 || len(f) != n*n {
		panic("vec: ContractAxis shape mismatch")
	}
	outer := len(x) / (n * inner)
	if inner == 1 {
		for o := 0; o < outer; o++ {
			xo := x[o*n : (o+1)*n]
			do := dst[o*n : (o+1)*n]
			for a := 0; a < n; a++ {
				row := f[a*n : (a+1)*n]
				s := 0.0
				for b, v := range row {
					s += v * xo[b]
				}
				do[a] = s
			}
		}
		return
	}
	block := n * inner
	for o := 0; o < outer; o++ {
		xo := x[o*block : (o+1)*block]
		do := dst[o*block : (o+1)*block]
		for a := 0; a < n; a++ {
			row := f[a*n : (a+1)*n]
			out := do[a*inner : (a+1)*inner]
			v := row[0]
			src := xo[:inner]
			for i := range out {
				out[i] = v * src[i]
			}
			for b := 1; b < n; b++ {
				v = row[b]
				if v == 0 {
					continue
				}
				src = xo[b*inner : (b+1)*inner]
				for i := range out {
					out[i] += v * src[i]
				}
			}
		}
	}
}

// Floor clamps x below: x[i] = max(x[i], floor). It is the tiny-mass guard
// the Bregman and scaling-Sinkhorn loops apply after every kernel
// application so the following divisions stay finite.
func Floor(x []float64, floor float64) {
	for i, v := range x {
		if v < floor {
			x[i] = floor
		}
	}
}

// DivTo fills dst[i] = num[i] / den[i] — the marginal-ratio sweep of the
// scaling-form OT iterations. Callers floor den first.
func DivTo(dst, num, den []float64) {
	if len(dst) != len(num) || len(num) != len(den) {
		panic("vec: DivTo length mismatch")
	}
	for i, v := range num {
		dst[i] = v / den[i]
	}
}

// ExpTo fills dst[i] = exp(x[i]) — the geometric-mean exponentiation sweep
// of the Bregman barycenter.
func ExpTo(dst, x []float64) {
	if len(dst) != len(x) {
		panic("vec: ExpTo length mismatch")
	}
	for i, v := range x {
		dst[i] = math.Exp(v)
	}
}

// AxpyLog accumulates y[i] += alpha·log(x[i]) — the λ-weighted log-domain
// geometric mean update of the Bregman barycenter. Callers floor x first;
// the kernel itself takes no guard so it stays a pure two-op sweep.
func AxpyLog(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("vec: AxpyLog length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * math.Log(v)
	}
}

// ForwardSubstQuad solves L·y = (x − mean) for a block of right-hand sides
// sharing one packed lower-triangular factor, and writes each solution's
// quadratic form ‖y‖² to quad. l is the factor packed row-major without the
// zero upper triangle (row i starts at i(i+1)/2 and holds i+1 entries —
// the layout blind's QDA stores its Cholesky factors in); x holds
// len(quad) raw rows of length d, row-major, left untouched so several
// factors can consume one gathered block; y is same-shape scratch
// receiving the solutions; mean (length d) is subtracted on the fly.
//
// This is the batched form of the per-record substitution in the QDA
// log-density: iterating factor rows in the outer loop streams the
// contiguous factor exactly once per block while every right-hand side
// advances in lockstep. Per right-hand side the arithmetic — centering
// first, the ascending dot product, one subtraction, the division, the
// running Σy_i² — is identical to the scalar loop, so results are
// bit-identical to solving each system alone; the consuming differential
// tests pin that.
func ForwardSubstQuad(l, mean []float64, d int, x, y, quad []float64) {
	n := len(quad)
	if len(l) != d*(d+1)/2 || len(mean) != d || len(x) != n*d || len(y) != n*d {
		panic("vec: ForwardSubstQuad length mismatch")
	}
	for r := range quad {
		quad[r] = 0
	}
	for i := 0; i < d; i++ {
		ri := i * (i + 1) / 2
		row := l[ri : ri+i]
		diag := l[ri+i]
		mi := mean[i]
		for r := 0; r < n; r++ {
			yr := y[r*d : r*d+d]
			// The dot product is inlined (same ascending accumulation as
			// Dot) — a call per (row, rhs) would dominate at small d.
			s := 0.0
			for j, v := range row {
				s += v * yr[j]
			}
			yi := (x[r*d+i] - mi - s) / diag
			yr[i] = yi
			quad[r] += yi * yi
		}
	}
}

// Softmax2 fills dst[i] with the second-class weight of a two-way softmax,
// exp(y_i−m)/(exp(x_i−m)+exp(y_i−m)) with m = max(x_i, y_i) — the row-wise
// max-shifted posterior kernel of the batched QDA. The shifted exponential
// of the maximum itself is exactly 1 (math.Exp(0) == 1), so branching on
// equality halves the math.Exp traffic without changing a single output
// bit relative to the scalar two-exp evaluation. Rows whose maximum is NaN
// or −Inf (both classes underflowed — the data carries no information)
// produce NaN, for the caller's fallback policy.
func Softmax2(dst, x, y []float64) {
	if len(dst) != len(x) || len(x) != len(y) {
		panic("vec: Softmax2 length mismatch")
	}
	for i, xv := range x {
		yv := y[i]
		m := math.Max(xv, yv)
		if math.IsNaN(m) || math.IsInf(m, -1) {
			dst[i] = math.NaN()
			continue
		}
		e0, e1 := 1.0, 1.0
		if xv != m {
			e0 = math.Exp(xv - m)
		}
		if yv != m {
			e1 = math.Exp(yv - m)
		}
		dst[i] = e1 / (e0 + e1)
	}
}

// gaussChunk bounds the multiplicative recurrence below before it is
// re-anchored with a direct exp; 128 steps keep the accumulated relative
// rounding under ~3e-14, far inside the pipeline's 1e-9 differential
// contract, while amortizing the two anchor exps over 128 grid cells.
const gaussChunk = 128

// GaussianAccum accumulates dst[j] += w·exp(−½·(u0 + j·d)²) for all j.
//
// This is the fused kernel under KDE grid evaluation: one research sample
// contributes a Gaussian bump sampled on a uniform grid, and evaluating it
// naively costs one math.Exp per grid cell — the single hottest instruction
// of the whole reproduction (see PERFORMANCE.md). The identity
//
//	exp(−½(u+d)²) = exp(−½u²)·exp(−u·d − ½d²)
//
// turns consecutive cells into a two-multiply recurrence: with
// e_j = exp(−½u_j²) and r_j = exp(−u_j·d − ½d²), e_{j+1} = e_j·r_j and
// r_{j+1} = r_j·q where q = exp(−d²) is constant. The recurrence is
// re-anchored every gaussChunk steps to bound rounding drift.
//
// The factors stay finite for every reachable argument: e_j ≤ 1 because it
// is a true Gaussian value, and r_j ≤ exp(|u|·d − ½d²) ≤ exp(u²/2) which is
// bounded by the kernel cutoff radius the callers window with.
func GaussianAccum(dst []float64, u0, d, w float64) {
	n := len(dst)
	q := math.Exp(-d * d)
	j := 0
	for j < n {
		end := j + gaussChunk
		if end > n {
			end = n
		}
		u := u0 + float64(j)*d
		e := w * math.Exp(-0.5*u*u)
		r := math.Exp(-u*d - 0.5*d*d)
		for ; j < end; j++ {
			dst[j] += e
			e *= r
			r *= q
		}
	}
}
