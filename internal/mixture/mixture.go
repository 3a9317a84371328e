// Package mixture implements Gaussian mixture modelling by
// expectation–maximization and the s|u label estimation the paper relies on
// for unlabelled archival data (Eq. 10 and Section IV requirement 5): for
// each u-population, the archival feature distribution is the two-component
// mixture Σ_s f(x|s,u)·Pr[s|u]; fitting it and anchoring components to the
// labelled research groups yields ŝ|u labels for archive records.
package mixture

import (
	"errors"
	"fmt"
	"math"

	"otfair/internal/dataset"
	"otfair/internal/rng"
	"otfair/internal/stat"
	"otfair/internal/vec"
)

// Component is one diagonal-covariance Gaussian mixture component.
type Component struct {
	// Weight is the mixing proportion.
	Weight float64
	// Mean and Var are per-dimension means and variances (diagonal Σ).
	Mean []float64
	Var  []float64
}

// logPDF evaluates the component's log density at x.
func (c *Component) logPDF(x []float64) float64 {
	s := 0.0
	for k := range x {
		d := x[k] - c.Mean[k]
		s += -0.5*math.Log(2*math.Pi*c.Var[k]) - d*d/(2*c.Var[k])
	}
	return s
}

// Model is a fitted K-component diagonal GMM.
type Model struct {
	Components []Component
	// LogLik is the final training log-likelihood.
	LogLik float64
	// Iterations is the number of EM sweeps performed.
	Iterations int
	// Converged reports whether the log-likelihood improvement fell below
	// tolerance before the iteration cap.
	Converged bool
}

// Options configures EM.
type Options struct {
	// K is the number of components (default 2: the s-classes).
	K int
	// MaxIter caps EM sweeps (default 200).
	MaxIter int
	// Tol is the absolute log-likelihood improvement threshold (default 1e-6).
	Tol float64
	// MinVar floors component variances to keep the likelihood bounded
	// (default 1e-6 times the data variance).
	MinVar float64
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 2
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	return o
}

// Fit runs EM on rows (n×d) with k-means++-style seeding from r.
func Fit(rows [][]float64, r *rng.RNG, opts Options) (*Model, error) {
	opts = opts.withDefaults()
	n := len(rows)
	if n == 0 {
		return nil, errors.New("mixture: empty sample")
	}
	d := len(rows[0])
	if d == 0 {
		return nil, errors.New("mixture: zero-dimensional sample")
	}
	for i, row := range rows {
		if len(row) != d {
			return nil, fmt.Errorf("mixture: row %d has %d features, want %d", i, len(row), d)
		}
	}
	if opts.K > n {
		return nil, fmt.Errorf("mixture: %d components for %d points", opts.K, n)
	}

	minVar := opts.MinVar
	if minVar <= 0 {
		// Scale-aware default floor.
		v := 0.0
		for k := 0; k < d; k++ {
			v += stat.PopVariance(stat.Column(rows, k))
		}
		v /= float64(d)
		if v <= 0 || math.IsNaN(v) {
			v = 1
		}
		minVar = 1e-6 * v
	}

	model := initModel(rows, r, opts.K, minVar)
	resp := make([][]float64, n)
	for i := range resp {
		resp[i] = make([]float64, opts.K)
	}
	prevLL := math.Inf(-1)
	for iter := 1; iter <= opts.MaxIter; iter++ {
		ll := eStep(rows, model, resp)
		mStep(rows, resp, model, minVar)
		model.LogLik = ll
		model.Iterations = iter
		if math.Abs(ll-prevLL) < opts.Tol {
			model.Converged = true
			break
		}
		prevLL = ll
	}
	return model, nil
}

// initModel seeds components on distinct data points (k-means++-like:
// subsequent seeds drawn with probability proportional to squared distance
// from the nearest existing seed) with data-scale variances.
func initModel(rows [][]float64, r *rng.RNG, k int, minVar float64) *Model {
	n, d := len(rows), len(rows[0])
	seeds := make([][]float64, 0, k)
	first := rows[r.IntN(n)]
	seeds = append(seeds, first)
	dist := make([]float64, n)
	for len(seeds) < k {
		total := 0.0
		for i, row := range rows {
			best := math.Inf(1)
			for _, s := range seeds {
				ds := 0.0
				for kk := 0; kk < d; kk++ {
					diff := row[kk] - s[kk]
					ds += diff * diff
				}
				if ds < best {
					best = ds
				}
			}
			dist[i] = best
			total += best
		}
		if total <= 0 {
			// All points identical: reuse the first seed.
			seeds = append(seeds, first)
			continue
		}
		seeds = append(seeds, rows[r.Categorical(dist)])
	}
	model := &Model{Components: make([]Component, k)}
	for j := 0; j < k; j++ {
		c := Component{
			Weight: 1 / float64(k),
			Mean:   append([]float64(nil), seeds[j]...),
			Var:    make([]float64, d),
		}
		for kk := 0; kk < d; kk++ {
			v := stat.PopVariance(stat.Column(rows, kk))
			if v < minVar || math.IsNaN(v) {
				v = minVar
			}
			c.Var[kk] = v
		}
		model.Components[j] = c
	}
	return model
}

// eStep fills responsibilities and returns the log-likelihood.
func eStep(rows [][]float64, m *Model, resp [][]float64) float64 {
	k := len(m.Components)
	logW := make([]float64, k)
	for j, c := range m.Components {
		logW[j] = math.Log(math.Max(c.Weight, 1e-300))
	}
	ll := 0.0
	buf := make([]float64, k)
	for i, row := range rows {
		for j := range m.Components {
			buf[j] = logW[j] + m.Components[j].logPDF(row)
		}
		lse := vec.LogSumExp(buf)
		ll += lse
		for j := range buf {
			resp[i][j] = math.Exp(buf[j] - lse)
		}
	}
	return ll
}

// mStep re-estimates weights, means and variances from responsibilities.
func mStep(rows [][]float64, resp [][]float64, m *Model, minVar float64) {
	n := len(rows)
	d := len(rows[0])
	k := len(m.Components)
	for j := 0; j < k; j++ {
		nj := 0.0
		for i := 0; i < n; i++ {
			nj += resp[i][j]
		}
		c := &m.Components[j]
		if nj <= 1e-12 {
			// Dead component: keep parameters, zero weight; it can revive if
			// responsibilities shift in later sweeps.
			c.Weight = 0
			continue
		}
		c.Weight = nj / float64(n)
		for kk := 0; kk < d; kk++ {
			mean := 0.0
			for i := 0; i < n; i++ {
				mean += resp[i][j] * rows[i][kk]
			}
			mean /= nj
			c.Mean[kk] = mean
			v := 0.0
			for i := 0; i < n; i++ {
				diff := rows[i][kk] - mean
				v += resp[i][j] * diff * diff
			}
			v /= nj
			if v < minVar {
				v = minVar
			}
			c.Var[kk] = v
		}
	}
}

// Posterior returns the component responsibilities for one point.
func (m *Model) Posterior(x []float64) []float64 {
	k := len(m.Components)
	buf := make([]float64, k)
	for j, c := range m.Components {
		buf[j] = math.Log(math.Max(c.Weight, 1e-300)) + c.logPDF(x)
	}
	lse := vec.LogSumExp(buf)
	out := make([]float64, k)
	for j := range buf {
		out[j] = math.Exp(buf[j] - lse)
	}
	return out
}

// Classify returns the MAP component for one point.
func (m *Model) Classify(x []float64) int {
	post := m.Posterior(x)
	best, bi := post[0], 0
	for j, p := range post[1:] {
		if p > best {
			best, bi = p, j+1
		}
	}
	return bi
}

// LabelEstimator assigns ŝ|u labels to archive records: per u-population it
// fits a 2-component GMM to the pooled features and maps components to s
// by matching component means to the labelled research group means.
type LabelEstimator struct {
	// models[u] is the fitted mixture for the u-population; nil when the
	// research data had no such population.
	models [2]*Model
	// compToS[u][component] is the s label assigned to each component.
	compToS [2][]int
	dim     int
}

// NewLabelEstimator fits the per-u mixtures on the archive features and
// anchors their components to the research groups.
func NewLabelEstimator(research, archive *dataset.Table, r *rng.RNG, opts Options) (*LabelEstimator, error) {
	if research == nil || archive == nil {
		return nil, errors.New("mixture: nil table")
	}
	if research.Dim() != archive.Dim() {
		return nil, fmt.Errorf("mixture: dimension mismatch %d vs %d", research.Dim(), archive.Dim())
	}
	est := &LabelEstimator{dim: research.Dim()}
	opts.K = 2
	for u := 0; u < 2; u++ {
		var rows [][]float64
		for _, rec := range archive.Records() {
			if rec.U == u {
				rows = append(rows, rec.X)
			}
		}
		if len(rows) == 0 {
			continue
		}
		// Research anchors.
		anchor := make([][]float64, 2)
		for s := 0; s < 2; s++ {
			anchor[s] = groupMean(research, u, s)
			if anchor[s] == nil {
				return nil, fmt.Errorf("mixture: research group (u=%d,s=%d) empty; cannot anchor components", u, s)
			}
		}
		model, err := Fit(rows, r, opts)
		if err != nil {
			return nil, fmt.Errorf("mixture: fitting u=%d: %w", u, err)
		}
		est.models[u] = model
		est.compToS[u] = assignComponents(model, anchor)
	}
	return est, nil
}

// groupMean returns the mean feature vector of a research group, nil when
// empty.
func groupMean(t *dataset.Table, u, s int) []float64 {
	sum := make([]float64, t.Dim())
	n := 0
	for _, rec := range t.Records() {
		if rec.U != u || rec.S != s {
			continue
		}
		for k, v := range rec.X {
			sum[k] += v
		}
		n++
	}
	if n == 0 {
		return nil
	}
	for k := range sum {
		sum[k] /= float64(n)
	}
	return sum
}

// assignComponents maps each mixture component to the s whose research
// anchor mean is closest; if both components map to the same s, the second
// closest assignment flips so both labels stay represented.
func assignComponents(m *Model, anchor [][]float64) []int {
	k := len(m.Components)
	out := make([]int, k)
	for j, c := range m.Components {
		d0 := sqDist(c.Mean, anchor[0])
		d1 := sqDist(c.Mean, anchor[1])
		if d0 <= d1 {
			out[j] = 0
		} else {
			out[j] = 1
		}
	}
	if k == 2 && out[0] == out[1] {
		// Degenerate anchoring: force distinct labels by relative distance.
		if sqDist(m.Components[0].Mean, anchor[0])+sqDist(m.Components[1].Mean, anchor[1]) <=
			sqDist(m.Components[0].Mean, anchor[1])+sqDist(m.Components[1].Mean, anchor[0]) {
			out[0], out[1] = 0, 1
		} else {
			out[0], out[1] = 1, 0
		}
	}
	return out
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Estimate returns the ŝ label for one record.
func (e *LabelEstimator) Estimate(rec dataset.Record) (int, error) {
	if rec.U != 0 && rec.U != 1 {
		return 0, fmt.Errorf("mixture: invalid u label %d", rec.U)
	}
	if len(rec.X) != e.dim {
		return 0, fmt.Errorf("mixture: record has %d features, want %d", len(rec.X), e.dim)
	}
	m := e.models[rec.U]
	if m == nil {
		return 0, fmt.Errorf("mixture: no model for u=%d", rec.U)
	}
	return e.compToS[rec.U][m.Classify(rec.X)], nil
}

// Label returns a copy of the table with every record's S replaced by the
// estimated label (known labels are overwritten too, which lets callers
// measure estimation accuracy against ground truth).
func (e *LabelEstimator) Label(t *dataset.Table) (*dataset.Table, error) {
	out := t.Clone()
	for i := range out.Records() {
		s, err := e.Estimate(out.At(i))
		if err != nil {
			return nil, fmt.Errorf("mixture: record %d: %w", i, err)
		}
		out.Records()[i].S = s
	}
	return out, nil
}

// Accuracy reports the fraction of labelled records in t whose estimated
// label matches the recorded one.
func (e *LabelEstimator) Accuracy(t *dataset.Table) (float64, error) {
	n, hit := 0, 0
	for _, rec := range t.Records() {
		if rec.S == dataset.SUnknown {
			continue
		}
		s, err := e.Estimate(rec)
		if err != nil {
			return 0, err
		}
		n++
		if s == rec.S {
			hit++
		}
	}
	if n == 0 {
		return 0, errors.New("mixture: no labelled records to score")
	}
	return float64(hit) / float64(n), nil
}
