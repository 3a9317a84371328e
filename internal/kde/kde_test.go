package kde

import (
	"math"
	"testing"
	"testing/quick"

	"otfair/internal/rng"
	"otfair/internal/stat"
	"otfair/internal/vec"
)

func TestKernelsIntegrateToOne(t *testing.T) {
	kernels := []Kernel{Gaussian, Epanechnikov, Triangular, Uniform, Biweight}
	for _, k := range kernels {
		// Trapezoid over [-9, 9].
		const n = 20001
		grid := stat.Linspace(-9, 9, n)
		dx := grid[1] - grid[0]
		sum := 0.0
		for i, u := range grid {
			w := 1.0
			if i == 0 || i == n-1 {
				w = 0.5
			}
			sum += w * k.Eval(u) * dx
		}
		// The boxcar kernel's jump discontinuities at ±1 limit trapezoid
		// accuracy to O(dx); 1e-3 covers it while staying a real check.
		if math.Abs(sum-1) > 1e-3 {
			t.Errorf("kernel %v integrates to %v", k, sum)
		}
	}
}

func TestKernelsSymmetricNonNegative(t *testing.T) {
	kernels := []Kernel{Gaussian, Epanechnikov, Triangular, Uniform, Biweight}
	err := quick.Check(func(uRaw float64) bool {
		u := math.Mod(uRaw, 5)
		if math.IsNaN(u) {
			return true
		}
		for _, k := range kernels {
			if k.Eval(u) < 0 {
				return false
			}
			if math.Abs(k.Eval(u)-k.Eval(-u)) > 1e-15 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestKernelNames(t *testing.T) {
	for _, name := range []string{"gaussian", "epanechnikov", "triangular", "uniform", "biweight"} {
		k, err := ParseKernel(name)
		if err != nil {
			t.Fatalf("ParseKernel(%q): %v", name, err)
		}
		if k.String() != name {
			t.Errorf("round-trip %q -> %q", name, k.String())
		}
	}
	if _, err := ParseKernel("lorentzian"); err == nil {
		t.Error("unknown kernel accepted")
	}
	if k, err := ParseKernel(""); err != nil || k != Gaussian {
		t.Error("empty kernel should default to gaussian")
	}
}

func TestBandwidthNames(t *testing.T) {
	for _, name := range []string{"silverman", "scott", "lscv"} {
		b, err := ParseBandwidth(name)
		if err != nil {
			t.Fatalf("ParseBandwidth(%q): %v", name, err)
		}
		if b.String() != name {
			t.Errorf("round-trip %q -> %q", name, b.String())
		}
	}
	if _, err := ParseBandwidth("oracle"); err == nil {
		t.Error("unknown rule accepted")
	}
}

func TestSilvermanKnownValue(t *testing.T) {
	// For a standard normal sample, Silverman ≈ 0.9·min(σ, IQR/1.34)·n^(-1/5).
	r := rng.New(1)
	n := 1000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm()
	}
	h := SilvermanBandwidth(xs)
	// σ≈1, IQR/1.34≈1: expected ≈ 0.9·n^(-0.2) ≈ 0.226.
	want := 0.9 * math.Pow(float64(n), -0.2)
	if math.Abs(h-want) > 0.05 {
		t.Errorf("Silverman h = %v, want ≈ %v", h, want)
	}
}

func TestSilvermanDegenerate(t *testing.T) {
	h := SilvermanBandwidth([]float64{5, 5, 5, 5})
	if !(h > 0) {
		t.Errorf("degenerate Silverman h = %v", h)
	}
	if !math.IsNaN(SilvermanBandwidth(nil)) {
		t.Error("empty Silverman not NaN")
	}
	if h := SilvermanBandwidth([]float64{2}); h != 1 {
		t.Errorf("singleton Silverman h = %v", h)
	}
}

func TestScottBandwidth(t *testing.T) {
	r := rng.New(2)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Normal(0, 2)
	}
	h := ScottBandwidth(xs)
	want := 1.06 * 2 * math.Pow(500, -0.2)
	if math.Abs(h-want) > 0.1 {
		t.Errorf("Scott h = %v, want ≈ %v", h, want)
	}
}

func TestPDFRecoversNormal(t *testing.T) {
	r := rng.New(3)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = r.Normal(1, 1.5)
	}
	e := MustNew(xs, Gaussian, Silverman)
	// Compare at a few points against the true density.
	for _, x := range []float64{-1, 0, 1, 2, 3} {
		truth := math.Exp(-0.5*(x-1)*(x-1)/(1.5*1.5)) / (1.5 * math.Sqrt(2*math.Pi))
		got := e.PDF(x)
		if math.Abs(got-truth) > 0.02 {
			t.Errorf("PDF(%v) = %v, truth %v", x, got, truth)
		}
	}
}

func TestPDFIntegratesToOne(t *testing.T) {
	r := rng.New(4)
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = r.Normal(-2, 0.7)
	}
	for _, k := range []Kernel{Gaussian, Epanechnikov, Biweight} {
		e := MustNew(xs, k, Silverman)
		grid := stat.Linspace(-8, 4, 4001)
		dx := grid[1] - grid[0]
		sum := 0.0
		for _, g := range grid {
			sum += e.PDF(g) * dx
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("kernel %v KDE integrates to %v", k, sum)
		}
	}
}

func TestEvalGridMatchesPDF(t *testing.T) {
	r := rng.New(5)
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = r.Normal(0, 1)
	}
	for _, k := range []Kernel{Gaussian, Epanechnikov, Triangular, Uniform, Biweight} {
		e := MustNew(xs, k, Silverman)
		grid := stat.Linspace(-4, 4, 257)
		fast := e.EvalGrid(grid)
		for j, g := range grid {
			want := e.PDF(g)
			if math.Abs(fast[j]-want) > 1e-9*(1+want) {
				t.Errorf("kernel %v EvalGrid[%d] = %v, PDF = %v", k, j, fast[j], want)
			}
		}
	}
}

func TestEvalGridDegenerateGrid(t *testing.T) {
	e := MustNew([]float64{1, 2, 3}, Gaussian, Silverman)
	out := e.EvalGrid([]float64{2})
	if len(out) != 1 || out[0] != e.PDF(2) {
		t.Errorf("single-point grid mismatch: %v vs %v", out, e.PDF(2))
	}
	if got := e.EvalGrid(nil); len(got) != 0 {
		t.Errorf("empty grid returned %v", got)
	}
}

func TestGridPMF(t *testing.T) {
	r := rng.New(6)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = r.Normal(0, 1)
	}
	e := MustNew(xs, Gaussian, Silverman)
	grid := stat.Linspace(-4, 4, 50)
	pmf, err := e.GridPMF(grid)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vec.Sum(pmf)-1) > 1e-12 {
		t.Errorf("pmf sums to %v", vec.Sum(pmf))
	}
	for _, p := range pmf {
		if p < 0 {
			t.Fatal("negative pmf entry")
		}
	}
}

func TestGridPMFNoMass(t *testing.T) {
	// Compact kernel far from the grid -> zero mass -> error.
	e, err := NewFixed([]float64{100}, Epanechnikov, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.GridPMF(stat.Linspace(0, 1, 10)); err == nil {
		t.Error("expected no-mass error")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, Gaussian, Silverman); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := NewFixed([]float64{1}, Gaussian, 0); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := NewFixed([]float64{1}, Gaussian, math.Inf(1)); err == nil {
		t.Error("infinite bandwidth accepted")
	}
	if _, err := NewFixed([]float64{1}, Gaussian, math.NaN()); err == nil {
		t.Error("NaN bandwidth accepted")
	}
}

func TestEstimatorAccessors(t *testing.T) {
	e := MustNew([]float64{1, 2, 3}, Epanechnikov, Scott)
	if e.N() != 3 || e.Kernel() != Epanechnikov || !(e.Bandwidth() > 0) {
		t.Errorf("accessors: n=%d kernel=%v h=%v", e.N(), e.Kernel(), e.Bandwidth())
	}
}

func TestLSCVReasonable(t *testing.T) {
	// LSCV on a normal sample should pick a bandwidth within a factor ~3 of
	// Silverman (both estimate the same AMISE-optimal order).
	r := rng.New(7)
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = r.Norm()
	}
	e := MustNew(xs, Gaussian, LSCV)
	hs := SilvermanBandwidth(xs)
	ratio := e.Bandwidth() / hs
	if ratio < 1.0/4 || ratio > 4 {
		t.Errorf("LSCV h = %v vs Silverman %v (ratio %v)", e.Bandwidth(), hs, ratio)
	}
}

func TestLSCVSmallSampleFallsBack(t *testing.T) {
	e := MustNew([]float64{1, 2}, Gaussian, LSCV)
	if e.Bandwidth() != SilvermanBandwidth([]float64{1, 2}) {
		t.Error("small-sample LSCV should fall back to Silverman")
	}
}

func TestEstimatorCopiesSample(t *testing.T) {
	xs := []float64{1, 2, 3}
	e := MustNew(xs, Gaussian, Silverman)
	before := e.PDF(2)
	xs[0] = 1000
	if e.PDF(2) != before {
		t.Error("estimator aliases caller's sample")
	}
}

func BenchmarkEvalGrid(b *testing.B) {
	r := rng.New(8)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.Norm()
	}
	e := MustNew(xs, Gaussian, Silverman)
	grid := stat.Linspace(-4, 4, 250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EvalGrid(grid)
	}
}

// MustNew is New that panics on error, for statically valid test inputs.
func MustNew(sample []float64, kernel Kernel, rule Bandwidth) *Estimator {
	e, err := New(sample, kernel, rule)
	if err != nil {
		panic(err)
	}
	return e
}
