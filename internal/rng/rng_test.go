package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 coincide on %d/100 draws", same)
	}
}

func TestSplitIndependentOfStreamPosition(t *testing.T) {
	a := New(7)
	b := New(7)
	// Advance a, not b: Split must still agree.
	for i := 0; i < 50; i++ {
		a.Float64()
	}
	ca := a.Split(3)
	cb := b.Split(3)
	for i := 0; i < 100; i++ {
		if ca.Float64() != cb.Float64() {
			t.Fatalf("split streams diverged at draw %d", i)
		}
	}
}

func TestSplitChildrenDecorrelated(t *testing.T) {
	parent := New(99)
	c0 := parent.Split(0)
	c1 := parent.Split(1)
	same := 0
	for i := 0; i < 1000; i++ {
		if c0.Float64() == c1.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling streams coincide on %d/1000 draws", same)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Uniform(-3,7) = %v out of range", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(11)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(2, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("mean = %v, want ~2", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Errorf("variance = %v, want ~9", variance)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(13)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	f := float64(hits) / n
	if math.Abs(f-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %v", f)
	}
}

func TestBernoulliClamps(t *testing.T) {
	r := New(1)
	if r.Bernoulli(-0.5) {
		t.Error("Bernoulli(-0.5) returned true")
	}
	if !r.Bernoulli(1.5) {
		t.Error("Bernoulli(1.5) returned false")
	}
}

// Categorical draws an index from the (possibly unnormalized) non-negative
// weight vector w by inversion. It panics if the total mass is not positive
// or if any weight is negative or NaN: a zero-mass row of an OT plan is a
// design bug upstream that must not be masked here.
//
// It is the O(n)-per-draw inversion oracle the alias tables are held to.
func (r *RNG) Categorical(w []float64) int {
	total := 0.0
	for _, wi := range w {
		if wi < 0 || math.IsNaN(wi) {
			panic("rng: Categorical called with negative or NaN weight")
		}
		total += wi
	}
	if total <= 0 {
		panic("rng: Categorical called with zero total mass")
	}
	u := r.src.Float64() * total
	acc := 0.0
	for i, wi := range w {
		acc += wi
		if u < acc {
			return i
		}
	}
	// Floating-point slack: return the last strictly positive weight.
	for i := len(w) - 1; i >= 0; i-- {
		if w[i] > 0 {
			return i
		}
	}
	return len(w) - 1
}

func TestCategoricalFrequencies(t *testing.T) {
	r := New(17)
	w := []float64{1, 2, 3, 4}
	counts := make([]int, 4)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Categorical(w)]++
	}
	for i, c := range counts {
		want := w[i] / 10
		got := float64(c) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("category %d frequency = %v, want %v", i, got, want)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	r := New(1)
	for _, w := range [][]float64{{0, 0}, {-1, 2}, {math.NaN(), 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%v) did not panic", w)
				}
			}()
			r.Categorical(w)
		}()
	}
}

func TestCategoricalSkipsZeroWeights(t *testing.T) {
	r := New(23)
	w := []float64{0, 1, 0, 0}
	for i := 0; i < 1000; i++ {
		if got := r.Categorical(w); got != 1 {
			t.Fatalf("Categorical([0,1,0,0]) = %d", got)
		}
	}
}

// identityLabels labels category i with i.
func identityLabels(n int) []int32 {
	l := make([]int32, n)
	for i := range l {
		l[i] = int32(i)
	}
	return l
}

// buildAlias is a one-table AliasBuilder run with identity labels.
func buildAlias(w []float64) []AliasSlot {
	var b AliasBuilder
	return b.Append(nil, w, identityLabels(len(w)))
}

func TestAliasMatchesWeights(t *testing.T) {
	r := New(41)
	w := []float64{0.1, 0.0, 0.4, 0.5}
	a := buildAlias(w)
	counts := make([]int, len(w))
	const n = 200000
	for i := 0; i < n; i++ {
		counts[r.DrawAlias(a)]++
	}
	for i := range w {
		got := float64(counts[i]) / n
		if math.Abs(got-w[i]) > 0.01 {
			t.Errorf("alias category %d frequency = %v, want %v", i, got, w[i])
		}
	}
}

func TestAliasSingleCategory(t *testing.T) {
	r := New(43)
	a := buildAlias([]float64{3.5})
	for i := 0; i < 100; i++ {
		if r.DrawAlias(a) != 0 {
			t.Fatal("single-category alias drew nonzero index")
		}
	}
}

func TestAliasZeroMassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("alias table with zero mass did not panic")
		}
	}()
	buildAlias([]float64{0, 0, 0})
}

func TestAliasAgreesWithCategorical(t *testing.T) {
	// Property: alias-table frequencies match inversion-sampling frequencies
	// within Monte-Carlo noise on random weight vectors.
	r := New(47)
	for trial := 0; trial < 5; trial++ {
		n := 2 + r.IntN(20)
		w := make([]float64, n)
		for i := range w {
			w[i] = r.Float64()
		}
		total := 0.0
		for _, wi := range w {
			total += wi
		}
		a := buildAlias(w)
		countsA := make([]int, n)
		countsC := make([]int, n)
		const draws = 50000
		for i := 0; i < draws; i++ {
			countsA[r.DrawAlias(a)]++
			countsC[r.Categorical(w)]++
		}
		for i := range w {
			fa := float64(countsA[i]) / draws
			fc := float64(countsC[i]) / draws
			want := w[i] / total
			if math.Abs(fa-want) > 0.02 || math.Abs(fc-want) > 0.02 {
				t.Errorf("trial %d category %d: alias %v categorical %v want %v", trial, i, fa, fc, want)
			}
		}
	}
}

// oracleAlias is the two-array Walker/Vose table the fused AliasSlot
// layout replaced — prob and alias as separate slices, labels looked up by
// the caller — kept as the oracle the builder must reproduce bit for bit.
type oracleAlias struct {
	prob  []float64
	alias []int
	// leftover counts the categories settled by the round-off branch.
	leftover int
}

func newOracleAlias(w []float64) *oracleAlias {
	n := len(w)
	total := 0.0
	for _, wi := range w {
		total += wi
	}
	a := &oracleAlias{prob: make([]float64, n), alias: make([]int, n)}
	if n == 1 {
		a.prob[0] = 1
		return a
	}
	scaled := make([]float64, n)
	for i, wi := range w {
		scaled[i] = wi * float64(n) / total
	}
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, p := range scaled {
		if p < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]

		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
		a.leftover++
	}
	return a
}

func (a *oracleAlias) draw(r *RNG) int {
	i := r.IntN(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// checkAgainstOracle builds w's table (labelled by labels) with b after
// whatever b built before, and checks every slot and a draw sequence
// against the oracle bit for bit.
func checkAgainstOracle(t *testing.T, b *AliasBuilder, prefix []AliasSlot, w []float64, labels []int32, seed uint64) *oracleAlias {
	t.Helper()
	o := newOracleAlias(w)
	all := b.Append(prefix, w, labels)
	if len(all) != len(prefix)+len(w) {
		t.Fatalf("appended %d slots to %d, want %d", len(all)-len(prefix), len(prefix), len(w))
	}
	slots := all[len(prefix):]
	for i, s := range slots {
		if math.Float64bits(s.Prob) != math.Float64bits(o.prob[i]) {
			t.Fatalf("w=%v slot %d: prob %v, oracle %v", w, i, s.Prob, o.prob[i])
		}
		if s.Hit != labels[i] || s.Miss != labels[o.alias[i]] {
			t.Fatalf("w=%v slot %d: hit/miss %d/%d, oracle %d/%d", w, i, s.Hit, s.Miss, labels[i], labels[o.alias[i]])
		}
	}
	ra, rb := New(seed), New(seed)
	for d := 0; d < 2000; d++ {
		if got, want := rb.DrawAlias(slots), int(labels[o.draw(ra)]); got != want {
			t.Fatalf("w=%v draw %d: %d, oracle %d", w, d, got, want)
		}
	}
	return o
}

// TestAliasBuilderMatchesOracle is the property test of the fused
// builder: on random weight vectors (normalized or not, with and without
// zero entries), on one-category rows and on rows that reach the round-off
// branch, its slots carry the oracle's exact prob and alias (mapped
// through the labels) and a draw sequence lands on the same labels. One
// builder serves every table, appending to a shared slice, so its scratch
// reuse is under test too.
func TestAliasBuilderMatchesOracle(t *testing.T) {
	r := New(53)
	var b AliasBuilder
	var all []AliasSlot
	labelsFor := func(n int) []int32 {
		l := make([]int32, n)
		for i := range l {
			l[i] = int32(r.IntN(1 << 20))
		}
		return l
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.IntN(120)
		w := make([]float64, n)
		total := 0.0
		for i := range w {
			w[i] = r.Float64()
			if trial%3 == 1 && r.Bernoulli(0.3) {
				w[i] = 0
			}
			total += w[i]
		}
		if total == 0 {
			w[r.IntN(n)] = 1
			total = 1
		}
		if trial%2 == 0 {
			// Normalized rows, the way plan rows arrive (Mass/total).
			for i := range w {
				w[i] /= total
			}
		}
		labels := labelsFor(n)
		checkAgainstOracle(t, &b, all, w, labels, uint64(trial))
		all = b.Append(all, w, labels)
	}
	for _, w := range [][]float64{{1}, {7.25}, {0, 0, 3, 0}, {0, 1e-300, 0}} {
		checkAgainstOracle(t, &b, all, w, labelsFor(len(w)), 9)
	}
	// Rows of n equal weights 1/n: the scaled masses n·(1/n)/Σ land within
	// ulps of 1 on either side, which is what leaves categories for the
	// round-off branch.
	leftovers := 0
	for n := 2; n <= 400 && leftovers < 5; n++ {
		w := make([]float64, n)
		for i := range w {
			w[i] = 1 / float64(n)
		}
		w[0] += 1e-3 / float64(n)
		if o := checkAgainstOracle(t, &b, nil, w, labelsFor(n), uint64(n)); o.leftover > 0 {
			leftovers++
		}
	}
	if leftovers == 0 {
		t.Fatal("no row reached the round-off branch")
	}
}

func TestMVNMomentsIdentity(t *testing.T) {
	r := New(59)
	m := MustMVN([]float64{1, -2}, Identity(2))
	const n = 100000
	sum := [2]float64{}
	for i := 0; i < n; i++ {
		v := m.Sample(r, nil)
		sum[0] += v[0]
		sum[1] += v[1]
	}
	if math.Abs(sum[0]/n-1) > 0.02 || math.Abs(sum[1]/n+2) > 0.02 {
		t.Errorf("MVN means = %v %v", sum[0]/n, sum[1]/n)
	}
}

func TestMVNCovariance(t *testing.T) {
	r := New(61)
	cov := [][]float64{{2, 0.8}, {0.8, 1}}
	m := MustMVN([]float64{0, 0}, cov)
	const n = 200000
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		v := m.Sample(r, nil)
		sxx += v[0] * v[0]
		sxy += v[0] * v[1]
		syy += v[1] * v[1]
	}
	if math.Abs(sxx/n-2) > 0.05 {
		t.Errorf("var(x) = %v, want ~2", sxx/n)
	}
	if math.Abs(sxy/n-0.8) > 0.05 {
		t.Errorf("cov(x,y) = %v, want ~0.8", sxy/n)
	}
	if math.Abs(syy/n-1) > 0.05 {
		t.Errorf("var(y) = %v, want ~1", syy/n)
	}
}

func TestMVNRejectsBadCovariance(t *testing.T) {
	if _, err := NewMVN([]float64{0, 0}, [][]float64{{1, 2}, {2, 1}}); err == nil {
		t.Error("indefinite covariance accepted")
	}
	if _, err := NewMVN([]float64{0}, [][]float64{{1, 0}, {0, 1}}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := NewMVN([]float64{0, 0}, [][]float64{{1}, {0, 1}}); err == nil {
		t.Error("ragged covariance accepted")
	}
}

func TestMVNSampleReusesDst(t *testing.T) {
	r := New(67)
	m := MustMVN([]float64{0}, Identity(1))
	dst := make([]float64, 1)
	out := m.Sample(r, dst)
	if &out[0] != &dst[0] {
		t.Error("Sample did not reuse dst")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(73)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(83)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(1, 0.5); v <= 0 {
			t.Fatalf("LogNormal produced %v", v)
		}
	}
}

// MustMVN is NewMVN that panics on error, for statically known-valid
// covariances such as the identity matrix of the simulation study.
func MustMVN(mean []float64, cov [][]float64) *MVN {
	m, err := NewMVN(mean, cov)
	if err != nil {
		panic(err)
	}
	return m
}
