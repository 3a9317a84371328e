package rng

import (
	"fmt"
	"math"
)

// MVN samples from a multivariate normal N(mean, cov) via the Cholesky
// factor of the covariance. The paper's simulation study (Section V-A)
// draws bivariate Gaussian sub-groups; this type supports any dimension.
type MVN struct {
	mean []float64
	// chol is the lower-triangular Cholesky factor L with cov = L Lᵀ,
	// stored row-major.
	chol [][]float64
	dim  int
}

// NewMVN constructs a sampler for N(mean, cov). cov must be symmetric
// positive definite; otherwise an error describing the failing pivot is
// returned.
func NewMVN(mean []float64, cov [][]float64) (*MVN, error) {
	d := len(mean)
	if len(cov) != d {
		return nil, fmt.Errorf("rng: covariance has %d rows, mean has %d entries", len(cov), d)
	}
	for i := range cov {
		if len(cov[i]) != d {
			return nil, fmt.Errorf("rng: covariance row %d has %d entries, want %d", i, len(cov[i]), d)
		}
	}
	l, err := cholesky(cov)
	if err != nil {
		return nil, err
	}
	m := make([]float64, d)
	copy(m, mean)
	return &MVN{mean: m, chol: l, dim: d}, nil
}

// Dim reports the dimensionality of the distribution.
func (m *MVN) Dim() int { return m.dim }

// Mean returns a copy of the mean vector.
func (m *MVN) Mean() []float64 {
	out := make([]float64, m.dim)
	copy(out, m.mean)
	return out
}

// Sample draws one vector, writing into dst if it has the right length and
// allocating otherwise, and returns it.
func (m *MVN) Sample(r *RNG, dst []float64) []float64 {
	if len(dst) != m.dim {
		dst = make([]float64, m.dim)
	}
	z := make([]float64, m.dim)
	for i := range z {
		z[i] = r.Norm()
	}
	for i := 0; i < m.dim; i++ {
		v := m.mean[i]
		for j := 0; j <= i; j++ {
			v += m.chol[i][j] * z[j]
		}
		dst[i] = v
	}
	return dst
}

// cholesky returns the lower-triangular factor L of a symmetric positive
// definite matrix, or an error naming the first non-positive pivot.
func cholesky(a [][]float64) ([][]float64, error) {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("rng: covariance not positive definite (pivot %d = %g)", i, sum)
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, nil
}

// Identity returns the d×d identity matrix, the covariance used throughout
// the paper's simulation study.
func Identity(d int) [][]float64 {
	m := make([][]float64, d)
	for i := range m {
		m[i] = make([]float64, d)
		m[i][i] = 1
	}
	return m
}
