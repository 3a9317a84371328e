package classify

import (
	"math"
	"testing"

	"otfair/internal/dataset"
	"otfair/internal/rng"
)

func TestTrainSeparable(t *testing.T) {
	r := rng.New(1)
	var rows [][]float64
	var labels []int
	for i := 0; i < 400; i++ {
		if i%2 == 0 {
			rows = append(rows, []float64{r.Normal(-2, 0.5)})
			labels = append(labels, 0)
		} else {
			rows = append(rows, []float64{r.Normal(2, 0.5)})
			labels = append(labels, 1)
		}
	}
	m, err := Train(rows, labels, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := m.Accuracy(rows, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.98 {
		t.Errorf("separable accuracy = %v", acc)
	}
	if p := m.Prob([]float64{3}); p < 0.9 {
		t.Errorf("Prob(3) = %v", p)
	}
	if p := m.Prob([]float64{-3}); p > 0.1 {
		t.Errorf("Prob(-3) = %v", p)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, TrainOptions{}); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := Train([][]float64{{1}}, []int{0, 1}, TrainOptions{}); err == nil {
		t.Error("label count mismatch accepted")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, []int{0, 1}, TrainOptions{}); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := Train([][]float64{{1}}, []int{2}, TrainOptions{}); err == nil {
		t.Error("non-binary label accepted")
	}
	if _, err := Train([][]float64{{}}, []int{0}, TrainOptions{}); err == nil {
		t.Error("zero-dim accepted")
	}
}

func TestTrainConstantFeature(t *testing.T) {
	// Zero-variance feature must not produce NaNs (std floor).
	rows := [][]float64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}
	labels := []int{0, 0, 1, 1}
	m, err := Train(rows, labels, TrainOptions{Epochs: 200})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(m.Prob([]float64{2.5, 5})) {
		t.Error("NaN probability with constant feature")
	}
}

func TestPredictThreshold(t *testing.T) {
	rows := [][]float64{{0}, {1}}
	labels := []int{0, 1}
	m, err := Train(rows, labels, TrainOptions{Epochs: 50})
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict([]float64{1}) != 1 || m.Predict([]float64{0}) != 0 {
		t.Error("threshold misbehaves on training points")
	}
}

func biasedTable(t *testing.T) *dataset.Table {
	t.Helper()
	tbl := dataset.MustTable(1, nil)
	r := rng.New(2)
	// s=1 earns a higher feature, so a threshold rule favours s=1.
	for i := 0; i < 2000; i++ {
		u := i % 2
		s := 0
		if r.Bernoulli(0.5) {
			s = 1
		}
		x := r.Normal(float64(s)*2, 1)
		if err := tbl.Append(dataset.Record{X: []float64{x}, S: s, U: u}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestRatesAndDisparateImpact(t *testing.T) {
	tbl := biasedTable(t)
	threshold := func(x []float64) int {
		if x[0] > 1 {
			return 1
		}
		return 0
	}
	rates, err := Rates(tbl, threshold)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2; u++ {
		di := rates.DisparateImpact(u)
		if math.IsNaN(di) || di > 0.5 {
			t.Errorf("u=%d DI = %v, expected strong disparity (<0.5)", u, di)
		}
	}
}

func TestFairRuleHasUnitDI(t *testing.T) {
	tbl := biasedTable(t)
	coin := 0
	fair := func(x []float64) int {
		coin++
		return coin % 2
	}
	rates, err := Rates(tbl, fair)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2; u++ {
		di := rates.DisparateImpact(u)
		if math.Abs(di-1) > 0.15 {
			t.Errorf("u=%d DI of random rule = %v", u, di)
		}
	}
}

func TestDisparateImpactEdgeCases(t *testing.T) {
	r := &GroupRates{}
	r.Rate[0][0] = 0.5
	r.Rate[0][1] = 0
	r.N[0][0], r.N[0][1] = 10, 10
	if di := r.DisparateImpact(0); !math.IsInf(di, 1) {
		t.Errorf("zero-denominator DI = %v", di)
	}
	r.Rate[0][0] = 0
	if di := r.DisparateImpact(0); di != 1 {
		t.Errorf("0/0 DI = %v, want 1", di)
	}
	r.Rate[1][0] = math.NaN()
	if di := r.DisparateImpact(1); !math.IsNaN(di) {
		t.Errorf("empty-group DI = %v", di)
	}
}

func TestRatesSkipsUnlabelled(t *testing.T) {
	tbl := dataset.MustTable(1, nil)
	tbl.Append(dataset.Record{X: []float64{1}, S: dataset.SUnknown, U: 0})
	tbl.Append(dataset.Record{X: []float64{1}, S: 0, U: 0})
	tbl.Append(dataset.Record{X: []float64{1}, S: 1, U: 0})
	rates, err := Rates(tbl, func([]float64) int { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if rates.N[0][0] != 1 || rates.N[0][1] != 1 {
		t.Errorf("counts = %v", rates.N)
	}
	if _, err := Rates(nil, func([]float64) int { return 0 }); err == nil {
		t.Error("nil table accepted")
	}
}

func TestLogisticProbMonotonicInFeature(t *testing.T) {
	r := rng.New(3)
	var rows [][]float64
	var labels []int
	for i := 0; i < 300; i++ {
		x := r.Uniform(-3, 3)
		label := 0
		if x+0.3*r.Norm() > 0 {
			label = 1
		}
		rows = append(rows, []float64{x})
		labels = append(labels, label)
	}
	m, err := Train(rows, labels, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, x := range []float64{-2, -1, 0, 1, 2} {
		p := m.Prob([]float64{x})
		if p <= prev {
			t.Errorf("Prob not increasing at %v: %v <= %v", x, p, prev)
		}
		prev = p
	}
}
