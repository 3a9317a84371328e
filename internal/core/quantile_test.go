package core

import (
	"fmt"
	"math"
	"testing"

	"otfair/internal/dataset"
	"otfair/internal/fairmetrics"
	"otfair/internal/ot"
	"otfair/internal/rng"
)

// empirical is the uniform empirical measure (1/n) Σ δ_{x_i} of a sample.
func empirical(xs []float64) (*ot.Measure, error) {
	w := make([]float64, len(xs))
	for i := range w {
		w[i] = 1
	}
	return ot.NewMeasure(xs, w)
}

// w1 is W₁(µ, ν): the L1 cost of the exact monotone plan between them.
func w1(mu, nu *ot.Measure) (float64, error) {
	plan, err := ot.Monotone(mu, nu)
	if err != nil {
		return 0, err
	}
	x, y := mu.Points(), nu.Points()
	return plan.Cost(func(i, j int) float64 { return math.Abs(x[i] - y[j]) }), nil
}

// checkMarginals reports the first marginal of p that is off source or
// target by more than tol (L∞). It reads the plan through the rows a
// repairer samples: row masses, and each row's conditional scaled back up.
func checkMarginals(p ot.RowPlan, source, target []float64, tol float64) error {
	n, m := p.Dims()
	rows, cols := make([]float64, n), make([]float64, m)
	for i := range rows {
		rows[i] = p.RowMass(i)
		targets, probs, _ := p.AppendRowConditional(nil, nil, i)
		for k, j := range targets {
			cols[j] += rows[i] * probs[k]
		}
	}
	for side, pair := range [2][2][]float64{{rows, source}, {cols, target}} {
		got, want := pair[0], pair[1]
		if len(got) != len(want) {
			return fmt.Errorf("marginal %d: length %d, want %d", side, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > tol {
				return fmt.Errorf("marginal %d state %d is %v, want %v", side, i, got[i], want[i])
			}
		}
	}
	return nil
}

func TestQuantileRepairQuenchesDependence(t *testing.T) {
	research, archive := paperData(t, 31, 500, 4000)
	qp, err := DesignQuantile(research, 1)
	if err != nil {
		t.Fatal(err)
	}
	repairedR, err := qp.RepairTable(research)
	if err != nil {
		t.Fatal(err)
	}
	repairedA, err := qp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fairmetrics.Config{Estimator: fairmetrics.EstimatorPlugin}
	beforeR, _ := fairmetrics.E(research, cfg)
	afterR, _ := fairmetrics.E(repairedR, cfg)
	beforeA, _ := fairmetrics.E(archive, cfg)
	afterA, _ := fairmetrics.E(repairedA, cfg)
	if afterR > beforeR/5 {
		t.Errorf("on-sample quantile repair: E %v -> %v", beforeR, afterR)
	}
	if afterA > beforeA/3 {
		t.Errorf("off-sample quantile repair: E %v -> %v", beforeA, afterA)
	}
}

func TestQuantileRepairDeterministic(t *testing.T) {
	research, archive := paperData(t, 32, 300, 200)
	qp, err := DesignQuantile(research, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := qp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	b, err := qp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i).X[0] != b.At(i).X[0] {
			t.Fatal("quantile repair is not deterministic")
		}
	}
}

func TestQuantileRepairPreservesRanks(t *testing.T) {
	// The quantile map is monotone within each (u,s) group: order must be
	// preserved — the individual-fairness property Section VI associates
	// with Monge maps.
	research, archive := paperData(t, 33, 400, 1000)
	qp, err := DesignQuantile(research, 1)
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := qp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2; u++ {
		for s := 0; s < 2; s++ {
			var orig, rep []float64
			for i := 0; i < archive.Len(); i++ {
				rec := archive.At(i)
				if rec.U == u && rec.S == s {
					orig = append(orig, rec.X[0])
					rep = append(rep, repaired.At(i).X[0])
				}
			}
			for i := 0; i < len(orig); i++ {
				for j := i + 1; j < len(orig); j++ {
					if orig[i] < orig[j] && rep[i] > rep[j]+1e-9 {
						t.Fatalf("(u=%d,s=%d): rank inversion %v<%v but %v>%v",
							u, s, orig[i], orig[j], rep[i], rep[j])
					}
				}
			}
		}
	}
}

func TestQuantilePartialInterpolates(t *testing.T) {
	research, archive := paperData(t, 34, 400, 1500)
	cfg := fairmetrics.Config{Estimator: fairmetrics.EstimatorPlugin}
	before, _ := fairmetrics.E(archive, cfg)
	var es []float64
	for _, amount := range []float64{0.3, 1.0} {
		qp, err := DesignQuantile(research, amount)
		if err != nil {
			t.Fatal(err)
		}
		repaired, err := qp.RepairTable(archive)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := fairmetrics.E(repaired, cfg)
		if e > before {
			t.Errorf("amount %v worsened E: %v > %v", amount, e, before)
		}
		es = append(es, e)
	}
	if es[1] >= es[0] {
		t.Errorf("full quantile repair %v not below partial %v", es[1], es[0])
	}
}

func TestQuantileValidation(t *testing.T) {
	research, _ := paperData(t, 35, 200, 0)
	if _, err := DesignQuantile(nil, 1); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := DesignQuantile(research, 0); err == nil {
		t.Error("zero amount accepted")
	}
	if _, err := DesignQuantile(research, 1.5); err == nil {
		t.Error("amount > 1 accepted")
	}
	oneGroup := dataset.MustTable(1, nil)
	for i := 0; i < 10; i++ {
		oneGroup.Append(dataset.Record{X: []float64{float64(i)}, S: 0, U: 0})
	}
	if _, err := DesignQuantile(oneGroup, 1); err == nil {
		t.Error("missing groups accepted")
	}
	qp, err := DesignQuantile(research, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qp.RepairValue(5, 0, 0, 1); err == nil {
		t.Error("bad u accepted")
	}
	if _, err := qp.RepairValue(0, 5, 0, 1); err == nil {
		t.Error("bad s accepted")
	}
	if _, err := qp.RepairValue(0, 0, 9, 1); err == nil {
		t.Error("bad feature accepted")
	}
	if _, err := qp.RepairRecord(dataset.Record{X: []float64{1, 2}, S: dataset.SUnknown, U: 0}); err == nil {
		t.Error("unlabelled record accepted")
	}
	if _, err := qp.RepairTable(dataset.MustTable(3, nil)); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestQuantileAndDistributionalAgreeInDistribution(t *testing.T) {
	// Both repairs target the same barycentre, so the repaired marginals
	// should be close in W1 even though the mechanisms differ.
	research, archive := paperData(t, 36, 800, 4000)
	qp, err := DesignQuantile(research, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Design(research, Options{NQ: 50})
	if err != nil {
		t.Fatal(err)
	}
	rp, _ := NewRepairer(plan, rng.New(37), RepairOptions{})
	a, err := qp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2; u++ {
		colA := a.UColumn(u, 0)
		colB := b.UColumn(u, 0)
		d, err := w1Samples(colA, colB)
		if err != nil {
			t.Fatal(err)
		}
		if d > 0.25 {
			t.Errorf("u=%d: quantile vs distributional repaired W1 = %v", u, d)
		}
	}
}

func w1Samples(a, b []float64) (float64, error) {
	ma, err := empirical(a)
	if err != nil {
		return 0, err
	}
	mb, err := empirical(b)
	if err != nil {
		return 0, err
	}
	return w1(ma, mb)
}

func TestQuantileRepairMidRankTies(t *testing.T) {
	// Heavy ties: all s=0 points identical. The mid-rank convention must
	// map them to the middle of the target, not the extremes.
	tbl := dataset.MustTable(1, nil)
	for i := 0; i < 40; i++ {
		tbl.Append(dataset.Record{X: []float64{10}, S: 0, U: 0})
		tbl.Append(dataset.Record{X: []float64{float64(i)}, S: 1, U: 0})
		tbl.Append(dataset.Record{X: []float64{float64(i)}, S: 0, U: 1})
		tbl.Append(dataset.Record{X: []float64{float64(i)}, S: 1, U: 1})
	}
	qp, err := DesignQuantile(tbl, 1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := qp.RepairValue(0, 0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Target at p=0.5: midpoint of 10 (s=0 quantile) and ~19.5 (s=1 median).
	if v < 12 || v > 18 {
		t.Errorf("tied atom repaired to %v, want mid-target", v)
	}
}
