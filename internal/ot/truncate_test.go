package ot

import (
	"math"
	"testing"
)

// gaussPMF builds a discretized normal pmf on n uniform states.
func gaussPMF(n int, mean, std float64) []float64 {
	out := make([]float64, n)
	total := 0.0
	for i := range out {
		z := (float64(i) - mean) / std
		out[i] = math.Exp(-0.5 * z * z)
		total += out[i]
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

// TestTruncateSubUlpPreservesRow checks the in-place row contract: exact
// row-total preservation, sub-ulp atoms removed, dominant atom retained.
func TestTruncateSubUlpPreservesRow(t *testing.T) {
	row := []float64{0.5, 1e-20, 0.25, 0, 1e-18, 0.25}
	before := 0.0
	for _, v := range row {
		before += v
	}
	dropped := TruncateSubUlp(row)
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	after := 0.0
	for _, v := range row {
		after += v
	}
	// Sub-ulp mass is by definition invisible in the total, so the fold
	// must leave it bit-identical.
	if after != before {
		t.Errorf("row total changed: %v -> %v", before, after)
	}
	if row[1] != 0 || row[4] != 0 {
		t.Errorf("sub-ulp atoms survive: %v", row)
	}
	if row[0] < 0.5 {
		t.Errorf("dominant atom lost mass: %v", row)
	}
}

func TestTruncateSubUlpEdgeCases(t *testing.T) {
	if d := TruncateSubUlp(nil); d != 0 {
		t.Errorf("nil row dropped %d", d)
	}
	zero := []float64{0, 0, 0}
	if d := TruncateSubUlp(zero); d != 0 {
		t.Errorf("zero row dropped %d", d)
	}
	single := []float64{1e-300}
	if d := TruncateSubUlp(single); d != 0 {
		t.Errorf("single-atom row dropped %d (the dominant atom must survive)", d)
	}
}

// TestSinkhornTruncationDifferential pins the truncated Sinkhorn plan to
// the untruncated plan of the reference solver on the same problem: every
// row conditional must agree within float64 tolerance (the repaired output
// *distribution* of Algorithm 2 is a mixture of exactly these
// conditionals, so agreement here bounds the repair-distribution
// perturbation), the marginals must stay feasible, and the truncated plan
// must actually be sparser — the point of the exercise.
func TestSinkhornTruncationDifferential(t *testing.T) {
	const n = 120
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) / float64(n-1)
	}
	a := gaussPMF(n, 35, 9)
	b := gaussPMF(n, 80, 14)
	cost, err := SquaredCostMatrix(xs)
	if err != nil {
		t.Fatal(err)
	}

	full, err := sinkhornReference(a, b, cost, SinkhornOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trunc, err := Sinkhorn(a, b, cost, SinkhornOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if trunc.Plan.NNZ() >= full.Plan.NNZ() {
		t.Fatalf("truncation did not sparsify: %d >= %d atoms", trunc.Plan.NNZ(), full.Plan.NNZ())
	}
	t.Logf("nnz: full=%d truncated=%d (%.1f%% kept)",
		full.Plan.NNZ(), trunc.Plan.NNZ(), 100*float64(trunc.Plan.NNZ())/float64(full.Plan.NNZ()))

	// Both plans must remain couplings of (a, b).
	if err := trunc.Plan.CheckMarginals(a, b, 1e-9); err != nil {
		t.Fatalf("truncated plan infeasible: %v", err)
	}

	// Row conditionals — the multinomials Algorithm 2 draws from — agree to
	// within a few ulps pointwise.
	for i := 0; i < n; i++ {
		fullDense := denseConditional(full.Plan, i, n)
		truncDense := denseConditional(trunc.Plan, i, n)
		if fullDense == nil || truncDense == nil {
			if (fullDense == nil) != (truncDense == nil) {
				t.Fatalf("row %d: mass disagreement between plans", i)
			}
			continue
		}
		for j := range fullDense {
			if diff := math.Abs(fullDense[j] - truncDense[j]); diff > 1e-12 {
				t.Fatalf("row %d, target %d: conditional differs by %v", i, j, diff)
			}
		}
	}
}

// denseConditional expands AppendRowConditional into a dense pmf (nil if the row
// has no mass). It takes the RowPlan interface, so the factored-plan
// differential tests share it.
func denseConditional(p RowPlan, i, m int) []float64 {
	targets, probs, ok := p.AppendRowConditional(nil, nil, i)
	if !ok {
		return nil
	}
	out := make([]float64, m)
	for k, j := range targets {
		out[j] = probs[k]
	}
	return out
}
