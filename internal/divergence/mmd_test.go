package divergence

import (
	"math"
	"testing"

	"otfair/internal/rng"
)

func TestMMDIdenticalDistributions(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 800)
	ys := make([]float64, 800)
	for i := range xs {
		xs[i] = r.Norm()
		ys[i] = r.Norm()
	}
	res, err := MMD(xs, ys, MMDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Squared) > 0.01 {
		t.Errorf("MMD² of identical normals = %v", res.Squared)
	}
	if res.Bandwidth <= 0 {
		t.Errorf("median-heuristic bandwidth = %v", res.Bandwidth)
	}
}

func TestMMDSeparatedDistributions(t *testing.T) {
	r := rng.New(2)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Normal(0, 1)
		ys[i] = r.Normal(3, 1)
	}
	res, err := MMD(xs, ys, MMDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Squared < 0.2 {
		t.Errorf("MMD² of well-separated normals = %v", res.Squared)
	}
}

func TestMMDOrdering(t *testing.T) {
	// Larger mean shift -> larger MMD under a fixed bandwidth.
	r := rng.New(3)
	base := make([]float64, 400)
	for i := range base {
		base[i] = r.Norm()
	}
	prev := -math.MaxFloat64
	for _, shift := range []float64{0.5, 1, 2} {
		ys := make([]float64, 400)
		for i := range ys {
			ys[i] = r.Normal(shift, 1)
		}
		res, err := MMD(base, ys, MMDOptions{Bandwidth: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Squared <= prev {
			t.Errorf("MMD² not increasing at shift %v: %v <= %v", shift, res.Squared, prev)
		}
		prev = res.Squared
	}
}

func TestMMDValidation(t *testing.T) {
	if _, err := MMD([]float64{1}, []float64{1, 2}, MMDOptions{}); err == nil {
		t.Error("too-small sample accepted")
	}
}

func TestMMDDegenerateConstant(t *testing.T) {
	xs := []float64{5, 5, 5}
	ys := []float64{5, 5, 5, 5}
	res, err := MMD(xs, ys, MMDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Squared != 0 {
		t.Errorf("constant-sample MMD² = %v", res.Squared)
	}
}

func TestMMDSubsampledHeuristic(t *testing.T) {
	// Pool larger than the heuristic cap must still produce a sane width.
	r := rng.New(4)
	xs := make([]float64, 3000)
	ys := make([]float64, 3000)
	for i := range xs {
		xs[i] = r.Norm()
		ys[i] = r.Norm()
	}
	res, err := MMD(xs, ys, MMDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Median |X−X'| for standard normals is ≈ 1.349·0.6745 ≈ 0.95.
	if res.Bandwidth < 0.5 || res.Bandwidth > 2 {
		t.Errorf("heuristic bandwidth = %v", res.Bandwidth)
	}
}
