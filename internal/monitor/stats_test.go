package monitor

import (
	"errors"
	"math"
	"sort"
	"testing"

	"otfair/internal/rng"
	"otfair/internal/stat"
)

func TestKSStatisticIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	d, err := KSStatistic(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-12 {
		t.Errorf("KS(a,a) = %v", d)
	}
}

func TestKSStatisticDisjointSamples(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	d, err := KSStatistic(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("KS(disjoint) = %v, want 1", d)
	}
}

func TestKSStatisticKnownValue(t *testing.T) {
	// a = {1,2}, b = {1.5}: after walking, max gap is 1/2.
	d, err := KSStatistic([]float64{1, 2}, []float64{1.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.5) > 1e-12 {
		t.Errorf("KS = %v, want 0.5", d)
	}
}

func TestKSStatisticErrors(t *testing.T) {
	if _, err := KSStatistic(nil, []float64{1}); err == nil {
		t.Error("empty a accepted")
	}
	if _, err := KSStatistic([]float64{1}, nil); err == nil {
		t.Error("empty b accepted")
	}
}

func TestKSSameDistributionStaysUnderCritical(t *testing.T) {
	r := rng.New(1)
	reject := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		a := make([]float64, 200)
		b := make([]float64, 200)
		for j := range a {
			a[j] = r.Norm()
			b[j] = r.Norm()
		}
		d, err := KSStatistic(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if d > KSCritical(len(a), len(b), 0.01) {
			reject++
		}
	}
	// Nominal level 1%; allow generous slack on 100 trials.
	if reject > 5 {
		t.Errorf("rejected %d/%d same-distribution pairs at α=0.01", reject, trials)
	}
}

func TestKSShiftedDistributionRejects(t *testing.T) {
	r := rng.New(2)
	a := make([]float64, 300)
	b := make([]float64, 300)
	for j := range a {
		a[j] = r.Norm()
		b[j] = r.Normal(1.0, 1) // 1σ mean shift
	}
	d, err := KSStatistic(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d <= KSCritical(len(a), len(b), 0.01) {
		t.Errorf("1σ shift not detected: KS=%v crit=%v", d, KSCritical(300, 300, 0.01))
	}
}

func TestKSCriticalEdgeCases(t *testing.T) {
	if !math.IsInf(KSCritical(0, 10, 0.05), 1) {
		t.Error("n=0 must be infinite")
	}
	if !math.IsInf(KSCritical(10, 10, 0), 1) {
		t.Error("alpha=0 must be infinite")
	}
	// Monotone in n: more data, tighter threshold.
	if KSCritical(100, 100, 0.05) <= KSCritical(400, 400, 0.05) {
		t.Error("critical value must shrink with n")
	}
	// Monotone in alpha: stricter level, wider threshold.
	if KSCritical(100, 100, 0.01) <= KSCritical(100, 100, 0.1) {
		t.Error("critical value must grow as alpha falls")
	}
}

func TestKSAgainstPMFExactMatch(t *testing.T) {
	// Sample drawn exactly at grid atoms with matching frequencies.
	grid := []float64{0, 1, 2, 3}
	pmf := []float64{0.25, 0.25, 0.25, 0.25}
	sample := []float64{0, 1, 2, 3}
	d, err := KSAgainstPMF(sample, grid, pmf)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-12 {
		t.Errorf("exact match KS = %v", d)
	}
}

func TestKSAgainstPMFShiftDetected(t *testing.T) {
	r := rng.New(3)
	grid := stat.Linspace(-4, 4, 81)
	pmf := make([]float64, len(grid))
	for i, g := range grid {
		pmf[i] = math.Exp(-g * g / 2)
	}
	norm, err := stat.Normalize(pmf)
	if err != nil {
		t.Fatal(err)
	}
	stationary := make([]float64, 400)
	shifted := make([]float64, 400)
	for i := range stationary {
		stationary[i] = r.Norm()
		shifted[i] = r.Normal(1.5, 1)
	}
	dStat, err := KSAgainstPMF(stationary, grid, norm)
	if err != nil {
		t.Fatal(err)
	}
	dShift, err := KSAgainstPMF(shifted, grid, norm)
	if err != nil {
		t.Fatal(err)
	}
	crit := KSOneSampleCritical(400, 0.01)
	if dStat > crit {
		t.Errorf("stationary sample rejected: KS=%v crit=%v", dStat, crit)
	}
	if dShift <= crit {
		t.Errorf("1.5σ shift missed: KS=%v crit=%v", dShift, crit)
	}
}

func TestKSAgainstPMFErrors(t *testing.T) {
	if _, err := KSAgainstPMF(nil, []float64{0}, []float64{1}); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := KSAgainstPMF([]float64{0}, []float64{0, 1}, []float64{1}); err == nil {
		t.Error("grid/pmf mismatch accepted")
	}
}

func TestPSIIdenticalAndShifted(t *testing.T) {
	p := []float64{0.2, 0.3, 0.5}
	psi, err := PSI(p, p)
	if err != nil {
		t.Fatal(err)
	}
	if psi > 1e-12 {
		t.Errorf("PSI(p,p) = %v", psi)
	}
	q := []float64{0.5, 0.3, 0.2}
	psi, err = PSI(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if psi < 0.2 {
		t.Errorf("PSI of a hard swap = %v, want > 0.2", psi)
	}
	if _, err := PSI(p, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestPSINonNegative(t *testing.T) {
	// PSI is a symmetrized KL-style quantity: non-negative for any pair.
	r := rng.New(4)
	for trial := 0; trial < 50; trial++ {
		p := make([]float64, 10)
		q := make([]float64, 10)
		for i := range p {
			p[i] = r.Float64()
			q[i] = r.Float64()
		}
		pn, _ := stat.Normalize(p)
		qn, _ := stat.Normalize(q)
		psi, err := PSI(pn, qn)
		if err != nil {
			t.Fatal(err)
		}
		if psi < 0 {
			t.Fatalf("PSI = %v < 0 for %v vs %v", psi, pn, qn)
		}
	}
}

func TestBinSample(t *testing.T) {
	grid := []float64{0, 1, 2}
	pmf, err := BinSample([]float64{-1, 0, 0.5, 1, 1.5, 99}, grid)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2.0 / 6, 2.0 / 6, 2.0 / 6}
	for i := range want {
		if math.Abs(pmf[i]-want[i]) > 1e-12 {
			t.Errorf("bin %d = %v, want %v", i, pmf[i], want[i])
		}
	}
	if _, err := BinSample(nil, grid); err == nil {
		t.Error("empty sample accepted")
	}
}

// KSStatistic computes the two-sample Kolmogorov–Smirnov statistic
// sup_x |F_a(x) − F_b(x)| by the classic merge walk.
func KSStatistic(a, b []float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, errors.New("monitor: KS needs two non-empty samples")
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	i, j := 0, 0
	d := 0.0
	for i < len(as) && j < len(bs) {
		// Step past the smaller value in both samples at once so ties do
		// not register a spurious CDF gap.
		x := as[i]
		if bs[j] < x {
			x = bs[j]
		}
		for i < len(as) && as[i] == x {
			i++
		}
		for j < len(bs) && bs[j] == x {
			j++
		}
		diff := math.Abs(float64(i)/float64(len(as)) - float64(j)/float64(len(bs)))
		if diff > d {
			d = diff
		}
	}
	return d, nil
}

// KSAgainstPMF computes the one-sample KS statistic between an empirical
// sample and a discrete reference distribution given as (ascending grid,
// pmf): sup |F̂_sample(x) − F_ref(x)| over the grid states. The reference
// CDF steps at grid points, so evaluating at them (and just before them)
// captures the supremum.
func KSAgainstPMF(sample, grid, pmf []float64) (float64, error) {
	if len(sample) == 0 {
		return 0, errors.New("monitor: empty sample")
	}
	if len(grid) != len(pmf) || len(grid) == 0 {
		return 0, errors.New("monitor: grid/pmf mismatch")
	}
	xs := append([]float64(nil), sample...)
	sort.Float64s(xs)
	empAt := func(x float64) float64 {
		// Fraction of sample ≤ x.
		return float64(sort.SearchFloat64s(xs, math.Nextafter(x, math.Inf(1)))) / float64(len(xs))
	}
	d := 0.0
	cum := 0.0
	for i, g := range grid {
		// Just before the atom: reference CDF is cum, empirical at g⁻.
		before := float64(sort.SearchFloat64s(xs, g)) / float64(len(xs))
		if diff := math.Abs(before - cum); diff > d {
			d = diff
		}
		cum += pmf[i]
		if diff := math.Abs(empAt(g) - cum); diff > d {
			d = diff
		}
	}
	return d, nil
}

// BinSample histograms a sample onto the half-open cells of an ascending
// grid (values below grid[0] land in bin 0, above grid[n-1] in bin n-1) and
// normalizes to a pmf — the binning PSI consumes.
func BinSample(sample, grid []float64) ([]float64, error) {
	if len(sample) == 0 || len(grid) == 0 {
		return nil, errors.New("monitor: empty sample or grid")
	}
	counts := make([]float64, len(grid))
	for _, x := range sample {
		i := sort.SearchFloat64s(grid, x)
		if i >= len(grid) {
			i = len(grid) - 1
		}
		counts[i]++
	}
	for i := range counts {
		counts[i] /= float64(len(sample))
	}
	return counts, nil
}
