// Package classify provides the downstream decision model of the paper's
// Figures 1–2 — a prediction rule ŷ = g(x) — and the u-conditional
// decision-fairness proxies of Section II-B: disparate impact
// (Definition 2.3), statistical parity difference, and equal opportunity.
// The repair experiments use it to show that quenching (X ⊥̸ S)|U also
// quenches classifier-level unfairness, and to quantify the accuracy cost.
package classify

import (
	"errors"
	"fmt"
	"math"

	"otfair/internal/dataset"
)

// Logistic is an L2-regularized logistic-regression classifier trained by
// full-batch gradient descent with feature standardization.
type Logistic struct {
	// weights has dim+1 entries; the last is the intercept.
	weights []float64
	// mean/std standardize inputs; std entries are never zero.
	mean, std []float64
	dim       int
}

// TrainOptions configures the optimizer.
type TrainOptions struct {
	// Epochs of full-batch gradient descent (default 500).
	Epochs int
	// LearningRate (default 0.5; features are standardized so this is safe).
	LearningRate float64
	// L2 regularization strength (default 1e-4).
	L2 float64
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Epochs <= 0 {
		o.Epochs = 500
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.5
	}
	if o.L2 < 0 {
		o.L2 = 0
	} else if o.L2 == 0 {
		o.L2 = 1e-4
	}
	return o
}

// Train fits a logistic model on rows (n×d) and binary labels.
func Train(rows [][]float64, labels []int, opts TrainOptions) (*Logistic, error) {
	n := len(rows)
	if n == 0 {
		return nil, errors.New("classify: empty training set")
	}
	if len(labels) != n {
		return nil, fmt.Errorf("classify: %d labels for %d rows", len(labels), n)
	}
	d := len(rows[0])
	if d == 0 {
		return nil, errors.New("classify: zero-dimensional features")
	}
	for i, row := range rows {
		if len(row) != d {
			return nil, fmt.Errorf("classify: row %d has %d features, want %d", i, len(row), d)
		}
		if labels[i] != 0 && labels[i] != 1 {
			return nil, fmt.Errorf("classify: label %d at row %d is not binary", labels[i], i)
		}
	}
	opts = opts.withDefaults()

	m := &Logistic{dim: d, mean: make([]float64, d), std: make([]float64, d)}
	for k := 0; k < d; k++ {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += rows[i][k]
		}
		m.mean[k] = sum / float64(n)
		v := 0.0
		for i := 0; i < n; i++ {
			diff := rows[i][k] - m.mean[k]
			v += diff * diff
		}
		s := math.Sqrt(v / float64(n))
		if s <= 0 || math.IsNaN(s) {
			s = 1
		}
		m.std[k] = s
	}

	z := make([][]float64, n)
	for i := range z {
		z[i] = make([]float64, d)
		for k := 0; k < d; k++ {
			z[i][k] = (rows[i][k] - m.mean[k]) / m.std[k]
		}
	}
	w := make([]float64, d+1)
	grad := make([]float64, d+1)
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		for j := range grad {
			grad[j] = 0
		}
		for i := 0; i < n; i++ {
			pred := sigmoid(dot(w, z[i]))
			errTerm := pred - float64(labels[i])
			for k := 0; k < d; k++ {
				grad[k] += errTerm * z[i][k]
			}
			grad[d] += errTerm
		}
		for k := 0; k < d; k++ {
			grad[k] = grad[k]/float64(n) + opts.L2*w[k]
		}
		grad[d] /= float64(n)
		for j := range w {
			w[j] -= opts.LearningRate * grad[j]
		}
	}
	m.weights = w
	return m, nil
}

// dot applies standardized weights: w[0..d-1]·z + w[d].
func dot(w, z []float64) float64 {
	s := w[len(w)-1]
	for k, v := range z {
		s += w[k] * v
	}
	return s
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Prob returns P(ŷ = 1 | x).
func (m *Logistic) Prob(x []float64) float64 {
	z := make([]float64, m.dim)
	for k := 0; k < m.dim; k++ {
		z[k] = (x[k] - m.mean[k]) / m.std[k]
	}
	return sigmoid(dot(m.weights, z))
}

// Predict thresholds Prob at ½, the rule g(x) of the paper.
func (m *Logistic) Predict(x []float64) int {
	if m.Prob(x) >= 0.5 {
		return 1
	}
	return 0
}

// Accuracy scores the classifier on rows/labels.
func (m *Logistic) Accuracy(rows [][]float64, labels []int) (float64, error) {
	if len(rows) == 0 || len(rows) != len(labels) {
		return 0, errors.New("classify: bad evaluation set")
	}
	hit := 0
	for i, row := range rows {
		if m.Predict(row) == labels[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(rows)), nil
}

// Rule is any binary decision function over feature vectors, the g(·) the
// fairness proxies are defined on.
type Rule func(x []float64) int

// GroupRates collects P̂(g = 1 | s, u) per labelled group.
type GroupRates struct {
	// Rate[u][s] is the positive-decision rate; NaN when the group is empty.
	Rate [2][2]float64
	// N[u][s] is the group size.
	N [2][2]int
}

// Rates evaluates a decision rule's positive rates over the labelled
// records of a table.
func Rates(t *dataset.Table, g Rule) (*GroupRates, error) {
	if t == nil || t.Len() == 0 {
		return nil, errors.New("classify: empty table")
	}
	var pos [2][2]int
	out := &GroupRates{}
	for _, rec := range t.Records() {
		if rec.S == dataset.SUnknown {
			continue
		}
		out.N[rec.U][rec.S]++
		if g(rec.X) == 1 {
			pos[rec.U][rec.S]++
		}
	}
	for u := 0; u < 2; u++ {
		for s := 0; s < 2; s++ {
			if out.N[u][s] == 0 {
				out.Rate[u][s] = math.NaN()
				continue
			}
			out.Rate[u][s] = float64(pos[u][s]) / float64(out.N[u][s])
		}
	}
	return out, nil
}

// DisparateImpact returns the u-conditional DI of Definition 2.3:
// DI(g, u) = P(g=1|s=0,u) / P(g=1|s=1,u). NaN when either group is empty;
// +Inf when the denominator rate is zero but the numerator is not.
func (r *GroupRates) DisparateImpact(u int) float64 {
	num, den := r.Rate[u][0], r.Rate[u][1]
	if math.IsNaN(num) || math.IsNaN(den) {
		return math.NaN()
	}
	if den == 0 {
		if num == 0 {
			return 1 // neither group receives positives: no disparity
		}
		return math.Inf(1)
	}
	return num / den
}
