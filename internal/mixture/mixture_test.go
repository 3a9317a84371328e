package mixture

import (
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
