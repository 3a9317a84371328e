package mixture

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"otfair/internal/dataset"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

func TestFitRecoversTwoGaussians(t *testing.T) {
	r := rng.New(1)
	var rows [][]float64
	for i := 0; i < 3000; i++ {
		if i%3 == 0 {
			rows = append(rows, []float64{r.Normal(-3, 1)})
		} else {
			rows = append(rows, []float64{r.Normal(3, 1)})
		}
	}
	m, err := Fit(rows, r, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Converged {
		t.Errorf("EM did not converge in %d iterations", m.Iterations)
	}
	// Identify components by mean sign.
	var neg, pos *Component
	for j := range m.Components {
		if m.Components[j].Mean[0] < 0 {
			neg = &m.Components[j]
		} else {
			pos = &m.Components[j]
		}
	}
	if neg == nil || pos == nil {
		t.Fatalf("components not separated: %+v", m.Components)
	}
	if math.Abs(neg.Mean[0]+3) > 0.3 || math.Abs(pos.Mean[0]-3) > 0.3 {
		t.Errorf("means = %v, %v", neg.Mean[0], pos.Mean[0])
	}
	if math.Abs(neg.Weight-1.0/3) > 0.05 {
		t.Errorf("weight = %v, want ~1/3", neg.Weight)
	}
	if math.Abs(neg.Var[0]-1) > 0.3 || math.Abs(pos.Var[0]-1) > 0.3 {
		t.Errorf("variances = %v, %v", neg.Var[0], pos.Var[0])
	}
}

func TestFitValidation(t *testing.T) {
	r := rng.New(2)
	if _, err := Fit(nil, r, Options{}); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := Fit([][]float64{{}}, r, Options{}); err == nil {
		t.Error("zero-dim accepted")
	}
	if _, err := Fit([][]float64{{1}, {1, 2}}, r, Options{}); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := Fit([][]float64{{1}}, r, Options{K: 5}); err == nil {
		t.Error("K > n accepted")
	}
}

func TestFitDegenerateData(t *testing.T) {
	// All points identical: EM must not blow up (variance floor).
	r := rng.New(3)
	rows := make([][]float64, 50)
	for i := range rows {
		rows[i] = []float64{7}
	}
	m, err := Fit(rows, r, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Components {
		if c.Weight > 0 && (math.IsNaN(c.Mean[0]) || c.Var[0] <= 0) {
			t.Errorf("degenerate component: %+v", c)
		}
	}
}

func TestPosteriorSumsToOne(t *testing.T) {
	r := rng.New(4)
	var rows [][]float64
	for i := 0; i < 500; i++ {
		rows = append(rows, []float64{r.Normal(0, 1), r.Normal(2, 1)})
	}
	m, err := Fit(rows, r, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range rows[:20] {
		p := m.Posterior(x)
		sum := 0.0
		for _, v := range p {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("posterior sums to %v", sum)
		}
	}
}

func TestClassifySeparatesClusters(t *testing.T) {
	r := rng.New(5)
	var rows [][]float64
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			rows = append(rows, []float64{r.Normal(-5, 1)})
		} else {
			rows = append(rows, []float64{r.Normal(5, 1)})
		}
	}
	m, _ := Fit(rows, r, Options{K: 2})
	cNeg := m.Classify([]float64{-5})
	cPos := m.Classify([]float64{5})
	if cNeg == cPos {
		t.Error("classifier cannot separate well-separated clusters")
	}
}

func TestLabelEstimatorOnSimulation(t *testing.T) {
	// Labels estimated from the u=0 population of the paper's scenario
	// (means −1 vs 0 per feature — overlapping but separable above chance).
	s, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(6)
	research, archive, err := s.ResearchArchive(r, 1000, 8000)
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewLabelEstimator(research, archive, r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := est.Accuracy(archive)
	if err != nil {
		t.Fatal(err)
	}
	// The Bayes rate for these overlapping mixtures is well below 1 but far
	// above the 0.5 coin flip; EM + anchoring should exceed 0.65.
	if acc < 0.65 {
		t.Errorf("label estimation accuracy = %v", acc)
	}
}

func TestLabelEstimatorLabelsEveryRecord(t *testing.T) {
	s, _ := simulate.NewSampler(simulate.Paper())
	r := rng.New(7)
	research, archive, _ := s.ResearchArchive(r, 500, 1000)
	est, err := NewLabelEstimator(research, archive.DropS(), r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	labelled, err := est.Label(archive.DropS())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < labelled.Len(); i++ {
		if labelled.At(i).S == dataset.SUnknown {
			t.Fatal("record left unlabelled")
		}
	}
}

func TestLabelEstimatorValidation(t *testing.T) {
	r := rng.New(8)
	if _, err := NewLabelEstimator(nil, nil, r, Options{}); err == nil {
		t.Error("nil tables accepted")
	}
	a := dataset.MustTable(1, nil)
	b := dataset.MustTable(2, nil)
	if _, err := NewLabelEstimator(a, b, r, Options{}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	// Research missing an s-class cannot anchor.
	research := dataset.MustTable(1, nil)
	archive := dataset.MustTable(1, nil)
	for i := 0; i < 20; i++ {
		research.Append(dataset.Record{X: []float64{float64(i)}, S: 0, U: 0})
		archive.Append(dataset.Record{X: []float64{float64(i)}, S: dataset.SUnknown, U: 0})
	}
	if _, err := NewLabelEstimator(research, archive, r, Options{}); err == nil {
		t.Error("unanchorable research accepted")
	}
}

func TestEstimateValidation(t *testing.T) {
	s, _ := simulate.NewSampler(simulate.Paper())
	r := rng.New(9)
	research, archive, _ := s.ResearchArchive(r, 300, 300)
	est, err := NewLabelEstimator(research, archive, r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Estimate(dataset.Record{X: []float64{1, 2}, U: 5}); err == nil {
		t.Error("bad u accepted")
	}
	if _, err := est.Estimate(dataset.Record{X: []float64{1}, U: 0}); err == nil {
		t.Error("bad dim accepted")
	}
}

func TestAccuracyRequiresLabels(t *testing.T) {
	s, _ := simulate.NewSampler(simulate.Paper())
	r := rng.New(10)
	research, archive, _ := s.ResearchArchive(r, 300, 300)
	est, _ := NewLabelEstimator(research, archive, r, Options{})
	if _, err := est.Accuracy(archive.DropS()); err == nil {
		t.Error("unlabelled accuracy accepted")
	}
}

func TestBICSelectK(t *testing.T) {
	r := rng.New(11)
	// Two clearly separated clusters: BIC should pick K=2 over 1 and 3.
	var rows [][]float64
	for i := 0; i < 600; i++ {
		mean := -4.0
		if i%2 == 0 {
			mean = 4
		}
		rows = append(rows, []float64{r.Normal(mean, 1)})
	}
	model, k, err := SelectK(rows, r, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Errorf("SelectK chose K=%d, want 2", k)
	}
	if model == nil || len(model.Components) != 2 {
		t.Fatalf("model = %+v", model)
	}
}

func TestBICSelectKSingleCluster(t *testing.T) {
	r := rng.New(12)
	var rows [][]float64
	for i := 0; i < 400; i++ {
		rows = append(rows, []float64{r.Norm()})
	}
	_, k, err := SelectK(rows, r, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Errorf("SelectK chose K=%d for unimodal data, want 1", k)
	}
}

func TestSelectKValidation(t *testing.T) {
	r := rng.New(13)
	if _, _, err := SelectK([][]float64{{1}}, r, 0, Options{}); err == nil {
		t.Error("maxK=0 accepted")
	}
}

func TestSPosteriorConsistentWithEstimate(t *testing.T) {
	s, _ := simulate.NewSampler(simulate.Paper())
	r := rng.New(10)
	research, archive, _ := s.ResearchArchive(r, 800, 4000)
	est, err := NewLabelEstimator(research, archive, r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < archive.Len(); i += 37 {
		rec := archive.At(i)
		p, err := est.SPosterior(rec)
		if err != nil {
			t.Fatal(err)
		}
		if p < 0 || p > 1 {
			t.Fatalf("posterior %v outside [0,1]", p)
		}
		hard, err := est.Estimate(rec)
		if err != nil {
			t.Fatal(err)
		}
		// The MAP label must agree with thresholding the soft posterior.
		if want := 0; p >= 0.5 {
			want = 1
			if hard != want {
				t.Fatalf("record %d: posterior %v but hard label %d", i, p, hard)
			}
		} else if hard != want {
			t.Fatalf("record %d: posterior %v but hard label %d", i, p, hard)
		}
	}
}

func TestSPosteriorValidation(t *testing.T) {
	s, _ := simulate.NewSampler(simulate.Paper())
	r := rng.New(11)
	research, archive, _ := s.ResearchArchive(r, 300, 300)
	est, err := NewLabelEstimator(research, archive, r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.SPosterior(dataset.Record{X: []float64{0, 0}, U: 9}); err == nil {
		t.Error("bad u accepted")
	}
	if _, err := est.SPosterior(dataset.Record{X: []float64{0}, U: 0}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

// BIC returns the Bayesian information criterion of a fitted model on the
// sample it was trained on: −2·logL + params·ln n, lower is better. A
// diagonal K-component model in d dimensions has K−1 + 2·K·d parameters.
func (m *Model) BIC(n, d int) float64 {
	k := len(m.Components)
	params := float64(k-1) + float64(2*k*d)
	return -2*m.LogLik + params*math.Log(float64(n))
}

// SelectK fits models with K = 1..maxK and returns the one minimizing BIC,
// the standard order-selection rule for the mixture identification step of
// Eq. (10).
func SelectK(rows [][]float64, r *rng.RNG, maxK int, opts Options) (*Model, int, error) {
	if maxK < 1 {
		return nil, 0, errors.New("mixture: maxK must be at least 1")
	}
	d := 0
	if len(rows) > 0 {
		d = len(rows[0])
	}
	var best *Model
	bestK := 0
	bestBIC := math.Inf(1)
	for k := 1; k <= maxK && k <= len(rows); k++ {
		opts.K = k
		m, err := Fit(rows, r, opts)
		if err != nil {
			return nil, 0, fmt.Errorf("mixture: K=%d: %w", k, err)
		}
		if bic := m.BIC(len(rows), d); bic < bestBIC {
			bestBIC, best, bestK = bic, m, k
		}
	}
	return best, bestK, nil
}

// SPosterior returns Pr[ŝ = 1 | x, u] under the fitted u-mixture: the total
// responsibility of the components anchored to s = 1. It is the soft label
// that internal/blind's posterior repair methods consume.
func (e *LabelEstimator) SPosterior(rec dataset.Record) (float64, error) {
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
	post := m.Posterior(rec.X)
	p1 := 0.0
	for j, p := range post {
		if e.compToS[rec.U][j] == 1 {
			p1 += p
		}
	}
	return p1, nil
}
