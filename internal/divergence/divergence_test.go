package divergence

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"otfair/internal/kde"
	"otfair/internal/rng"
	"otfair/internal/stat"
)

func TestKLIdentical(t *testing.T) {
	p := []float64{0.2, 0.3, 0.5}
	d, err := KL(p, p)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-12 {
		t.Errorf("KL(p,p) = %v", d)
	}
}

func TestKLKnownValue(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{0.25, 0.75}
	want := 0.5*math.Log(2) + 0.5*math.Log(2.0/3)
	d, err := KL(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-want) > 1e-9 {
		t.Errorf("KL = %v, want %v", d, want)
	}
}

func TestKLAsymmetric(t *testing.T) {
	p := []float64{0.9, 0.1}
	q := []float64{0.1, 0.9}
	a, _ := KL(p, q)
	b, _ := KL(q, p)
	s, _ := SymKL(p, q)
	if math.Abs(s-0.5*(a+b)) > 1e-12 {
		t.Errorf("SymKL %v != mean of %v, %v", s, a, b)
	}
}

func TestKLNonNegativeProperty(t *testing.T) {
	err := quick.Check(func(a, b, c, d uint8) bool {
		p := []float64{float64(a) + 1, float64(b) + 1}
		q := []float64{float64(c) + 1, float64(d) + 1}
		pn, _ := stat.Normalize(p)
		qn, _ := stat.Normalize(q)
		kl, err := KL(pn, qn)
		return err == nil && kl >= 0
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestSymKLSymmetricProperty(t *testing.T) {
	err := quick.Check(func(a, b, c, d uint8) bool {
		p := []float64{float64(a) + 1, float64(b) + 1, 2}
		q := []float64{float64(c) + 1, float64(d) + 1, 3}
		pn, _ := stat.Normalize(p)
		qn, _ := stat.Normalize(q)
		s1, _ := SymKL(pn, qn)
		s2, _ := SymKL(qn, pn)
		return math.Abs(s1-s2) < 1e-12
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestValidation(t *testing.T) {
	if _, err := KL([]float64{1}, []float64{0.5, 0.5}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := KL(nil, nil); err == nil {
		t.Error("empty pmfs accepted")
	}
	if _, err := KL([]float64{-0.1, 1.1}, []float64{0.5, 0.5}); err == nil {
		t.Error("negative mass accepted")
	}
	if _, err := KL([]float64{math.NaN(), 1}, []float64{0.5, 0.5}); err == nil {
		t.Error("NaN mass accepted")
	}
	if _, err := KLFloored([]float64{1, 0}, []float64{0, 1}, 0); err == nil {
		t.Error("zero floor accepted")
	}
}

func TestFlooringKeepsFinite(t *testing.T) {
	// Disjoint supports: without flooring KL is infinite.
	p := []float64{1, 0}
	q := []float64{0, 1}
	d, err := KL(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(d, 0) || math.IsNaN(d) {
		t.Errorf("floored KL not finite: %v", d)
	}
	if d < 10 {
		t.Errorf("disjoint-support KL suspiciously small: %v", d)
	}
}

func TestGaussianKLClosedForm(t *testing.T) {
	// Equal variances: D = (Δm)²/2σ².
	if got := GaussianKL(0, 1, 1, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("GaussianKL = %v, want 0.5", got)
	}
	// Identical distributions.
	if got := GaussianKL(2, 3, 2, 3); math.Abs(got) > 1e-12 {
		t.Errorf("GaussianKL identical = %v", got)
	}
	// Symmetrized equal-variance: (Δm)²/σ²·1/2·2·(1/2)... = (Δm)²/(2σ²)
	// summed both ways = (Δm)²/σ² / ... compute: ½(0.5+0.5)=0.5 for Δm=1,σ=1.
	if got := GaussianSymKL(0, 1, 1, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("GaussianSymKL = %v, want 0.5", got)
	}
}

func TestGridKLMatchesGaussianOracle(t *testing.T) {
	// KDE-on-grid estimator should approach the closed-form KL for large,
	// well-separated-but-overlapping Gaussian samples.
	r := rng.New(9)
	n := 20000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(0, 1)
		ys[i] = r.Normal(0.5, 1)
	}
	ex, err := kde.New(xs, kde.Gaussian, kde.Silverman)
	if err != nil {
		t.Fatal(err)
	}
	ey, err := kde.New(ys, kde.Gaussian, kde.Silverman)
	if err != nil {
		t.Fatal(err)
	}
	grid := stat.Linspace(-5, 5.5, 1024)
	px, err := ex.GridPMF(grid)
	if err != nil {
		t.Fatal(err)
	}
	py, err := ey.GridPMF(grid)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SymKL(px, py)
	if err != nil {
		t.Fatal(err)
	}
	want := GaussianSymKL(0, 1, 0.5, 1)
	// KDE smoothing biases KL downward slightly; accept 30% relative error.
	if math.Abs(got-want)/want > 0.3 {
		t.Errorf("grid SymKL = %v, oracle %v", got, want)
	}
}

func TestKNNKLMatchesGaussianOracle(t *testing.T) {
	r := rng.New(10)
	n := 8000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(0, 1)
		ys[i] = r.Normal(1, 1)
	}
	got, err := KNNSymKL(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	want := GaussianSymKL(0, 1, 1, 1) // = 1.0
	if math.Abs(got-want) > 0.25 {
		t.Errorf("kNN SymKL = %v, oracle %v", got, want)
	}
}

func TestKNNKLErrors(t *testing.T) {
	if _, err := KNNKL([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("too-small P sample accepted")
	}
	if _, err := KNNKL([]float64{1, 2}, nil); err == nil {
		t.Error("empty Q sample accepted")
	}
}

func TestKNNKLDuplicatePointsFinite(t *testing.T) {
	// Failure injection: duplicate points give zero NN distances; the
	// estimator must stay finite via its internal tiny-distance clamp.
	p := []float64{1, 1, 1, 2, 2}
	q := []float64{1, 1, 3}
	d, err := KNNKL(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(d, 0) || math.IsNaN(d) {
		t.Errorf("duplicate-point kNN KL = %v", d)
	}
}

// KL returns the Kullback–Leibler divergence D(p‖q) in nats between two
// discrete pmfs on a shared support, flooring both at DefaultFloor.
func KL(p, q []float64) (float64, error) {
	return KLFloored(p, q, DefaultFloor)
}

// SymKL returns the symmetrized KL of Definition 2.4:
// ½·D(p‖q) + ½·D(q‖p).
func SymKL(p, q []float64) (float64, error) {
	return SymKLFloored(p, q, DefaultFloor)
}

// GaussianKL returns the closed-form KL divergence
// D(N(m0,s0²) ‖ N(m1,s1²)) = ln(s1/s0) + (s0² + (m0−m1)²)/(2 s1²) − ½.
// It is the oracle the grid estimators are validated against in tests.
func GaussianKL(m0, s0, m1, s1 float64) float64 {
	return math.Log(s1/s0) + (s0*s0+(m0-m1)*(m0-m1))/(2*s1*s1) - 0.5
}

// GaussianSymKL returns the closed-form symmetrized KL between two normals;
// for equal variances it reduces to (m0−m1)²/(2σ²)·... specifically
// ½[D01 + D10].
func GaussianSymKL(m0, s0, m1, s1 float64) float64 {
	return 0.5*GaussianKL(m0, s0, m1, s1) + 0.5*GaussianKL(m1, s1, m0, s0)
}

// KNNKL estimates the differential KL divergence D(P‖Q) from samples using
// the 1-nearest-neighbour estimator of Wang, Kulkarni & Verdú (2009):
// D̂ = (1/n) Σ_i log(ν_i/ρ_i) + log(m/(n−1)), where ρ_i is the distance from
// x_i to its nearest neighbour in the P-sample and ν_i its distance to the
// nearest Q-sample point. It needs no grid or floor, which makes it a useful
// cross-check for the KDE-grid pipeline on continuous data.
func KNNKL(pSample, qSample []float64) (float64, error) {
	n, m := len(pSample), len(qSample)
	if n < 2 || m < 1 {
		return 0, errors.New("divergence: KNNKL needs ≥2 P samples and ≥1 Q sample")
	}
	ps := append([]float64(nil), pSample...)
	qs := append([]float64(nil), qSample...)
	sort.Float64s(ps)
	sort.Float64s(qs)
	const tiny = 1e-12
	sum := 0.0
	for i, x := range ps {
		rho := math.Inf(1)
		if i > 0 {
			rho = x - ps[i-1]
		}
		if i < n-1 {
			if d := ps[i+1] - x; d < rho {
				rho = d
			}
		}
		nu := nearestDistSorted(qs, x)
		if rho < tiny {
			rho = tiny
		}
		if nu < tiny {
			nu = tiny
		}
		sum += math.Log(nu / rho)
	}
	return sum/float64(n) + math.Log(float64(m)/float64(n-1)), nil
}

// KNNSymKL is the symmetrized kNN KL estimate ½[D̂(P‖Q) + D̂(Q‖P)].
func KNNSymKL(pSample, qSample []float64) (float64, error) {
	a, err := KNNKL(pSample, qSample)
	if err != nil {
		return 0, err
	}
	b, err := KNNKL(qSample, pSample)
	if err != nil {
		return 0, err
	}
	return 0.5*a + 0.5*b, nil
}

// nearestDistSorted returns the distance from x to the closest element of
// the ascending slice ys.
func nearestDistSorted(ys []float64, x float64) float64 {
	i := sort.SearchFloat64s(ys, x)
	best := math.Inf(1)
	if i < len(ys) {
		best = ys[i] - x
	}
	if i > 0 {
		if d := x - ys[i-1]; d < best {
			best = d
		}
	}
	return best
}
