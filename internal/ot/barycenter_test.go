package ot

import (
	"math"
	"testing"

	"otfair/internal/rng"
	"otfair/internal/stat"
	"otfair/internal/vec"
)

func TestGeodesicMidpointOfDiracs(t *testing.T) {
	mu := MustMeasure([]float64{0}, []float64{1})
	nu := MustMeasure([]float64{2}, []float64{1})
	bary, err := Geodesic(mu, nu, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if bary.Len() != 1 || math.Abs(bary.Points()[0]-1) > 1e-12 {
		t.Errorf("midpoint of δ0, δ2 = %v", bary.Points())
	}
}

func TestGeodesicEndpoints(t *testing.T) {
	mu := MustMeasure([]float64{0, 1}, []float64{1, 1})
	nu := MustMeasure([]float64{4, 6}, []float64{1, 3})
	b0, err := Geodesic(mu, nu, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := Wasserstein2(b0, mu); d > 1e-9 {
		t.Errorf("t=0 geodesic differs from µ0 by W2 = %v", d)
	}
	b1, err := Geodesic(mu, nu, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := Wasserstein2(b1, nu); d > 1e-9 {
		t.Errorf("t=1 geodesic differs from µ1 by W2 = %v", d)
	}
}

func TestGeodesicParamValidation(t *testing.T) {
	mu := MustMeasure([]float64{0}, []float64{1})
	if _, err := Geodesic(mu, mu, -0.1); err == nil {
		t.Error("t < 0 accepted")
	}
	if _, err := Geodesic(mu, mu, 1.1); err == nil {
		t.Error("t > 1 accepted")
	}
	if _, err := Geodesic(mu, mu, math.NaN()); err == nil {
		t.Error("NaN t accepted")
	}
}

func TestBarycenterEquidistantProperty(t *testing.T) {
	// The t=0.5 barycenter is W2-equidistant from both inputs — the paper's
	// defining property for the fair target ν (Section III-A).
	r := rng.New(211)
	for trial := 0; trial < 20; trial++ {
		mu := randomMeasure(r, 2+r.IntN(15))
		nu := randomMeasure(r, 2+r.IntN(15))
		bary, err := Geodesic(mu, nu, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		d0, _ := Wasserstein2(mu, bary)
		d1, _ := Wasserstein2(nu, bary)
		if math.Abs(d0-d1) > 1e-6*(1+d0+d1) {
			t.Errorf("trial %d: W2 to µ0 = %v, to µ1 = %v", trial, d0, d1)
		}
		// And it halves the distance: W2(µ0, ν) = ½ W2(µ0, µ1) on the geodesic.
		d01, _ := Wasserstein2(mu, nu)
		if math.Abs(d0-0.5*d01) > 1e-6*(1+d01) {
			t.Errorf("trial %d: W2(µ0,ν) = %v, want half of %v", trial, d0, d01)
		}
	}
}

func TestBarycenterGaussiansClosedForm(t *testing.T) {
	// The W2 barycenter of N(m0,σ0²) and N(m1,σ1²) with weight ½ is
	// N((m0+m1)/2, ((σ0+σ1)/2)²). Check mean and std of the discrete
	// barycenter of two large empirical Gaussian samples.
	r := rng.New(223)
	n := 20000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(-1, 1)
		ys[i] = r.Normal(3, 2)
	}
	mu, _ := Empirical(xs)
	nu, _ := Empirical(ys)
	bary, err := Geodesic(mu, nu, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bary.Mean()-1) > 0.05 {
		t.Errorf("barycenter mean = %v, want 1", bary.Mean())
	}
	if math.Abs(math.Sqrt(bary.Variance())-1.5) > 0.05 {
		t.Errorf("barycenter std = %v, want 1.5", math.Sqrt(bary.Variance()))
	}
}

func TestQuantileBarycenterWeightValidation(t *testing.T) {
	m := MustMeasure([]float64{0}, []float64{1})
	if _, err := QuantileBarycenter([]*Measure{m, m}, []float64{0.5}); err == nil {
		t.Error("wrong weight count accepted")
	}
	if _, err := QuantileBarycenter([]*Measure{m, m}, []float64{0.7, 0.7}); err == nil {
		t.Error("non-normalized weights accepted")
	}
	if _, err := QuantileBarycenter([]*Measure{m, m}, []float64{-0.5, 1.5}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := QuantileBarycenter(nil, nil); err == nil {
		t.Error("no measures accepted")
	}
	if _, err := QuantileBarycenter([]*Measure{nil}, []float64{1}); err == nil {
		t.Error("nil measure accepted")
	}
}

func TestThreeWayBarycenter(t *testing.T) {
	// Equal-weight barycenter of three Diracs is the mean point.
	ms := []*Measure{
		MustMeasure([]float64{0}, []float64{1}),
		MustMeasure([]float64{3}, []float64{1}),
		MustMeasure([]float64{6}, []float64{1}),
	}
	b, err := QuantileBarycenter(ms, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3})
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 || math.Abs(b.Points()[0]-3) > 1e-9 {
		t.Errorf("3-way barycenter = %v", b.Points())
	}
}

func TestProjectOntoGridPreservesMassAndMean(t *testing.T) {
	r := rng.New(227)
	grid := stat.Linspace(-5, 5, 41)
	for trial := 0; trial < 20; trial++ {
		m := randomMeasure(r, 2+r.IntN(20))
		// Clamp the measure into the grid range first so mean preservation
		// holds exactly (boundary clamping intentionally moves mass).
		pts := make([]float64, m.Len())
		for i, p := range m.Points() {
			pts[i] = math.Max(-5, math.Min(5, p))
		}
		clamped := MustMeasure(pts, m.Weights())
		pmf, err := ProjectOntoGrid(clamped, grid)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(vec.Sum(pmf)-1) > 1e-9 {
			t.Errorf("trial %d: projected mass = %v", trial, vec.Sum(pmf))
		}
		mean := 0.0
		for i, p := range pmf {
			mean += grid[i] * p
		}
		if math.Abs(mean-clamped.Mean()) > 1e-9 {
			t.Errorf("trial %d: projected mean %v vs %v", trial, mean, clamped.Mean())
		}
	}
}

func TestProjectOntoGridClampsOutOfRange(t *testing.T) {
	grid := []float64{0, 1, 2}
	m := MustMeasure([]float64{-5, 7}, []float64{1, 1})
	pmf, err := ProjectOntoGrid(m, grid)
	if err != nil {
		t.Fatal(err)
	}
	if pmf[0] != 0.5 || pmf[2] != 0.5 || pmf[1] != 0 {
		t.Errorf("clamped pmf = %v", pmf)
	}
}

func TestProjectOntoGridErrors(t *testing.T) {
	m := MustMeasure([]float64{0}, []float64{1})
	if _, err := ProjectOntoGrid(m, nil); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := ProjectOntoGrid(m, []float64{0, 0, 1}); err == nil {
		t.Error("non-ascending grid accepted")
	}
	if _, err := ProjectOntoGrid(nil, []float64{0, 1}); err == nil {
		t.Error("nil measure accepted")
	}
}

func TestGridBarycenterSymmetricInputs(t *testing.T) {
	// Barycenter of p and p is p (up to projection round-off on own grid:
	// exact, because atoms sit on grid points).
	grid := stat.Linspace(0, 10, 21)
	pmf := make([]float64, len(grid))
	pmf[3], pmf[10], pmf[17] = 0.25, 0.5, 0.25
	bary, err := GridBarycenter(grid, [][]float64{pmf, pmf}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pmf {
		if math.Abs(bary[i]-pmf[i]) > 1e-9 {
			t.Errorf("self-barycenter differs at %d: %v vs %v", i, bary[i], pmf[i])
			break
		}
	}
}

func TestGridBarycenterBetweenTwoGaussianPMFs(t *testing.T) {
	// Grid pmfs of N(-2, 0.5²) and N(2, 0.5²): the barycenter should center
	// at 0 with the same shape.
	grid := stat.Linspace(-5, 5, 201)
	g := func(mean float64) []float64 {
		pmf := make([]float64, len(grid))
		for i, x := range grid {
			pmf[i] = math.Exp(-0.5 * (x - mean) * (x - mean) / 0.25)
		}
		out, _ := stat.Normalize(pmf)
		return out
	}
	bary, err := GridBarycenter(grid, [][]float64{g(-2), g(2)}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for i, p := range bary {
		mean += grid[i] * p
	}
	if math.Abs(mean) > 0.01 {
		t.Errorf("barycenter mean = %v, want 0", mean)
	}
	// Shape check: W2 between barycenter and a target N(0, 0.5²) pmf small.
	baryM, _ := OnGrid(grid, bary)
	targetM, _ := OnGrid(grid, g(0))
	d, _ := Wasserstein2(baryM, targetM)
	if d > 0.05 {
		t.Errorf("barycenter W2 from N(0,0.25) pmf = %v", d)
	}
}

func TestBregmanBarycenterMatchesQuantileOnSmoothInputs(t *testing.T) {
	grid := stat.Linspace(-4, 4, 81)
	g := func(mean, sd float64) []float64 {
		pmf := make([]float64, len(grid))
		for i, x := range grid {
			pmf[i] = math.Exp(-0.5 * (x - mean) * (x - mean) / (sd * sd))
		}
		out, _ := stat.Normalize(pmf)
		return out
	}
	pmfs := [][]float64{g(-1, 0.8), g(1, 0.8)}
	lams := []float64{0.5, 0.5}
	exact, err := GridBarycenter(grid, pmfs, lams)
	if err != nil {
		t.Fatal(err)
	}
	breg, err := BregmanBarycenter(grid, pmfs, lams, BregmanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	me, _ := OnGrid(grid, exact)
	mb, _ := OnGrid(grid, breg)
	d, _ := Wasserstein2(me, mb)
	// Entropic smoothing blurs the barycenter; they must agree in W2 to
	// within a modest tolerance.
	if d > 0.2 {
		t.Errorf("Bregman vs quantile barycenter W2 = %v", d)
	}
	if math.Abs(vec.Sum(breg)-1) > 1e-9 {
		t.Errorf("Bregman barycenter mass = %v", vec.Sum(breg))
	}
}

func TestBregmanBarycenterValidation(t *testing.T) {
	grid := []float64{0, 1}
	if _, err := BregmanBarycenter(grid, nil, nil, BregmanOptions{}); err == nil {
		t.Error("no pmfs accepted")
	}
	if _, err := BregmanBarycenter(grid, [][]float64{{1}}, []float64{1}, BregmanOptions{}); err == nil {
		t.Error("pmf/grid mismatch accepted")
	}
	if _, err := BregmanBarycenter(grid, [][]float64{{0, 0}}, []float64{1}, BregmanOptions{}); err == nil {
		t.Error("zero-mass pmf accepted")
	}
	if _, err := BregmanBarycenter(grid, [][]float64{{0.5, 0.5}, {0.5, 0.5}}, []float64{0.9, 0.9}, BregmanOptions{}); err == nil {
		t.Error("bad weights accepted")
	}
}

func TestPlanRowConditional(t *testing.T) {
	plan, err := NewPlan(2, 3, []Entry{{0, 0, 0.2}, {0, 2, 0.3}, {1, 1, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	targets, probs, ok := plan.AppendRowConditional(nil, nil, 0)
	if !ok {
		t.Fatal("row 0 reported empty")
	}
	if len(targets) != 2 || targets[0] != 0 || targets[1] != 2 {
		t.Errorf("targets = %v", targets)
	}
	if math.Abs(probs[0]-0.4) > 1e-12 || math.Abs(probs[1]-0.6) > 1e-12 {
		t.Errorf("probs = %v", probs)
	}
	// Row with no atoms.
	plan2, _ := NewPlan(3, 2, []Entry{{0, 0, 1}})
	if _, _, ok := plan2.AppendRowConditional(nil, nil, 2); ok {
		t.Error("empty row reported ok")
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := NewPlan(0, 1, nil); err == nil {
		t.Error("zero dims accepted")
	}
	if _, err := NewPlan(2, 2, []Entry{{2, 0, 1}}); err == nil {
		t.Error("out-of-range entry accepted")
	}
	if _, err := NewPlan(2, 2, []Entry{{0, 0, -1}}); err == nil {
		t.Error("negative mass accepted")
	}
	if _, err := NewPlan(2, 2, []Entry{{0, 0, math.NaN()}}); err == nil {
		t.Error("NaN mass accepted")
	}
}

func TestPlanMergesDuplicateEntries(t *testing.T) {
	plan, err := NewPlan(1, 1, []Entry{{0, 0, 0.5}, {0, 0, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NNZ() != 1 || math.Abs(plan.Entries()[0].Mass-1) > 1e-12 {
		t.Errorf("merged plan = %+v", plan.Entries())
	}
}

func TestPlanDense(t *testing.T) {
	plan, _ := NewPlan(2, 2, []Entry{{0, 1, 0.5}, {1, 0, 0.5}})
	d := plan.Dense()
	if d[0][1] != 0.5 || d[1][0] != 0.5 || d[0][0] != 0 {
		t.Errorf("dense = %v", d)
	}
}
