package blind

import (
	"errors"
	"fmt"
	"math"

	"otfair/internal/dataset"
	"otfair/internal/vec"
)

// gaussian is a full-covariance multivariate normal fitted by maximum
// likelihood, evaluated through its Cholesky factor.
type gaussian struct {
	mean []float64
	// chol is the lower-triangular Cholesky factor of the (ridge-floored)
	// covariance, packed row-major without the zero upper triangle:
	// row i starts at i(i+1)/2 and holds i+1 entries. The packed layout
	// keeps the per-record forward substitution on one contiguous run of
	// memory — this is the innermost loop of the streaming soft-labeller.
	chol []float64
	// logNorm is the log normalizing constant −(d/2)·ln 2π − ½·ln|Σ|.
	logNorm float64
}

// newGaussian fits a d-dimensional Gaussian to rows. Covariances are floored
// by a relative ridge so that degenerate (constant or near-constant) research
// groups still yield a proper density.
func newGaussian(rows [][]float64) (*gaussian, error) {
	n := len(rows)
	if n == 0 {
		return nil, errors.New("blind: empty sample")
	}
	d := len(rows[0])
	if d == 0 {
		return nil, errors.New("blind: zero-dimensional sample")
	}
	mean := make([]float64, d)
	for _, row := range rows {
		if len(row) != d {
			return nil, fmt.Errorf("blind: ragged sample (row has %d features, want %d)", len(row), d)
		}
		for k, v := range row {
			mean[k] += v
		}
	}
	for k := range mean {
		mean[k] /= float64(n)
	}
	cov := make([][]float64, d)
	for i := range cov {
		cov[i] = make([]float64, d)
	}
	for _, row := range rows {
		for i := 0; i < d; i++ {
			di := row[i] - mean[i]
			for j := 0; j <= i; j++ {
				cov[i][j] += di * (row[j] - mean[j])
			}
		}
	}
	trace := 0.0
	for i := 0; i < d; i++ {
		for j := 0; j <= i; j++ {
			cov[i][j] /= float64(n)
			cov[j][i] = cov[i][j]
		}
		trace += cov[i][i]
	}
	// Ridge floor relative to the average variance keeps the factorization
	// positive definite for collinear or tiny groups.
	ridge := 1e-6 * (trace/float64(d) + 1e-12)
	for i := 0; i < d; i++ {
		cov[i][i] += ridge
	}
	chol, logDet, err := choleskyLogDet(cov)
	if err != nil {
		return nil, err
	}
	return &gaussian{
		mean:    mean,
		chol:    chol,
		logNorm: -0.5*float64(d)*math.Log(2*math.Pi) - 0.5*logDet,
	}, nil
}

// choleskyLogDet factors a symmetric positive-definite matrix and returns
// the packed lower factor together with the log determinant of the input.
func choleskyLogDet(a [][]float64) ([]float64, float64, error) {
	d := len(a)
	l := make([]float64, d*(d+1)/2)
	logDet := 0.0
	for i := 0; i < d; i++ {
		ri := i * (i + 1) / 2
		for j := 0; j <= i; j++ {
			rj := j * (j + 1) / 2
			sum := a[i][j] - vec.Dot(l[ri:ri+j], l[rj:rj+j])
			if i == j {
				if sum <= 0 {
					return nil, 0, errors.New("blind: covariance not positive definite")
				}
				l[ri+i] = math.Sqrt(sum)
				logDet += 2 * math.Log(l[ri+i])
			} else {
				l[ri+j] = sum / l[rj+j]
			}
		}
	}
	return l, logDet, nil
}

// qdaMaxStackDim bounds the stack-allocated substitution buffer; archival
// feature vectors beyond it (rare) fall back to a heap scratch.
const qdaMaxStackDim = 32

// logPDF evaluates the Gaussian log density via one forward substitution.
// It allocates nothing for d ≤ qdaMaxStackDim, which keeps the per-record
// posterior on the streaming path garbage-free.
func (g *gaussian) logPDF(x []float64) float64 {
	d := len(g.mean)
	// Solve L·y = (x − mean); then the quadratic form is ‖y‖².
	var stack [qdaMaxStackDim]float64
	var y []float64
	if d <= qdaMaxStackDim {
		y = stack[:d]
	} else {
		y = make([]float64, d)
	}
	q := 0.0
	for i := 0; i < d; i++ {
		ri := i * (i + 1) / 2
		sum := x[i] - g.mean[i] - vec.Dot(g.chol[ri:ri+i], y[:i])
		yi := sum / g.chol[ri+i]
		y[i] = yi
		q += yi * yi
	}
	return g.logNorm - 0.5*q
}

// QDA is a supervised quadratic-discriminant posterior Pr[s | x, u] fitted on
// the labelled research set: one full-covariance Gaussian per (u, s) group
// plus the empirical class priors Pr[s|u]. It is learned entirely at design
// time, so it can soft-label an unbounded archival stream record by record;
// it is the one ŝ|u label estimator (Classify is its MAP rule).
type QDA struct {
	comp  [2][2]*gaussian
	prior [2][2]float64 // prior[u][s] = Pr̂[s|u]
	dim   int
}

// NewQDA fits the class-conditional Gaussians and priors from a fully
// (u,s)-labelled research table. Every (u,s) group must be non-empty.
func NewQDA(research *dataset.Table) (*QDA, error) {
	if research == nil || research.Len() == 0 {
		return nil, errors.New("blind: empty research table")
	}
	q := &QDA{dim: research.Dim()}
	labelled, _ := research.Partition()
	for _, g := range dataset.Groups() {
		idx := labelled[g]
		if len(idx) == 0 {
			return nil, fmt.Errorf("blind: research group %v is empty; QDA needs every (u,s) group", g)
		}
		rows := make([][]float64, len(idx))
		for i, id := range idx {
			rows[i] = research.At(id).X
		}
		gg, err := newGaussian(rows)
		if err != nil {
			return nil, fmt.Errorf("blind: fitting group %v: %w", g, err)
		}
		q.comp[g.U][g.S] = gg
	}
	for u := 0; u < 2; u++ {
		n0 := len(labelled[dataset.Group{U: u, S: 0}])
		n1 := len(labelled[dataset.Group{U: u, S: 1}])
		q.prior[u][0] = float64(n0) / float64(n0+n1)
		q.prior[u][1] = float64(n1) / float64(n0+n1)
	}
	return q, nil
}

// Posterior returns Pr[s = 1 | x, u] for one record.
func (q *QDA) Posterior(rec dataset.Record) (float64, error) {
	if rec.U != 0 && rec.U != 1 {
		return 0, fmt.Errorf("blind: invalid u label %d", rec.U)
	}
	if len(rec.X) != q.dim {
		return 0, fmt.Errorf("blind: record has %d features, want %d", len(rec.X), q.dim)
	}
	l0 := math.Log(q.prior[rec.U][0]+1e-300) + q.comp[rec.U][0].logPDF(rec.X)
	l1 := math.Log(q.prior[rec.U][1]+1e-300) + q.comp[rec.U][1].logPDF(rec.X)
	m := math.Max(l0, l1)
	if math.IsInf(m, -1) || math.IsNaN(m) {
		// Both class likelihoods underflowed (the point is absurdly far
		// from every component): the data carries no information, so the
		// posterior reverts to the prior.
		return q.prior[rec.U][1], nil
	}
	e0, e1 := math.Exp(l0-m), math.Exp(l1-m)
	return e1 / (e0 + e1), nil
}

// Classify returns the MAP label ŝ for one record.
func (q *QDA) Classify(rec dataset.Record) (int, error) {
	p, err := q.Posterior(rec)
	if err != nil {
		return 0, err
	}
	if p >= 0.5 {
		return 1, nil
	}
	return 0, nil
}

// Accuracy reports the fraction of s-labelled records whose MAP label
// matches the recorded one.
func (q *QDA) Accuracy(t *dataset.Table) (float64, error) {
	n, hit := 0, 0
	for _, rec := range t.Records() {
		if rec.S == dataset.SUnknown {
			continue
		}
		s, err := q.Classify(rec)
		if err != nil {
			return 0, err
		}
		n++
		if s == rec.S {
			hit++
		}
	}
	if n == 0 {
		return 0, errors.New("blind: no labelled records to score")
	}
	return float64(hit) / float64(n), nil
}
