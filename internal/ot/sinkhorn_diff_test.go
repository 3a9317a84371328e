package ot

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// logSumExp computes log Σ exp(x_i) shifted by the maximum; −Inf for
// empty input or all-(−Inf) entries.
func logSumExp(xs []float64) float64 {
	max := math.Inf(-1)
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	s := 0.0
	for _, x := range xs {
		s += math.Exp(x - max)
	}
	return max + math.Log(s)
}

// TestLogSumExp holds the oracle's log-sum-exp to the unshifted sum where
// that cannot overflow, and to max + log n on equal entries where it does.
func TestLogSumExp(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		x := make([]float64, 1+r.Intn(200))
		naive := 0.0
		for i := range x {
			x[i] = r.NormFloat64() * 5
			naive += math.Exp(x[i])
		}
		if got, want := logSumExp(x), math.Log(naive); math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
			t.Fatalf("logSumExp = %v, want %v", got, want)
		}
	}
	big := []float64{1000, 1000, 1000, 1000}
	if got, want := logSumExp(big), 1000+math.Log(4); math.Abs(got-want) > 1e-12*want {
		t.Fatalf("logSumExp(1000 ×4) = %v, want %v", got, want)
	}
}

func TestLogSumExpEmptyAndInf(t *testing.T) {
	if v := logSumExp(nil); !math.IsInf(v, -1) {
		t.Fatalf("logSumExp(nil) = %v", v)
	}
	negInf := []float64{math.Inf(-1), math.Inf(-1)}
	if v := logSumExp(negInf); !math.IsInf(v, -1) {
		t.Fatalf("logSumExp(-inf) = %v", v)
	}
}

// sinkhornReference is a verbatim copy of the seed (pre-vec) solver: dense
// closure-based cost access, per-iteration full-plan re-materialization for
// the convergence check. It is the oracle the refactored solver is pinned
// against.
func sinkhornReference(a, b []float64, cost *CostMatrix, opts SinkhornOptions) (*SinkhornResult, error) {
	n, m := cost.Dims()
	opts = opts.withDefaults(cost)
	rowIdx := make([]int, 0, n)
	colIdx := make([]int, 0, m)
	sa, sb := 0.0, 0.0
	for i, v := range a {
		if v > 0 {
			rowIdx = append(rowIdx, i)
			sa += v
		}
	}
	for j, v := range b {
		if v > 0 {
			colIdx = append(colIdx, j)
			sb += v
		}
	}
	nn, mm := len(rowIdx), len(colIdx)
	logA := make([]float64, nn)
	logB := make([]float64, mm)
	for i, ri := range rowIdx {
		logA[i] = math.Log(a[ri] / sa)
	}
	for j, cj := range colIdx {
		logB[j] = math.Log(b[cj] / sb)
	}
	eps := opts.Epsilon
	f := make([]float64, nn)
	g := make([]float64, mm)
	buf := make([]float64, mm)
	bufN := make([]float64, nn)
	costAt := func(i, j int) float64 { return cost.At(rowIdx[i], colIdx[j]) }
	iter := 0
	errL1 := math.Inf(1)
	for ; iter < opts.MaxIter; iter++ {
		for i := 0; i < nn; i++ {
			for j := 0; j < mm; j++ {
				buf[j] = (g[j] - costAt(i, j)) / eps
			}
			f[i] = eps * (logA[i] - logSumExp(buf))
		}
		for j := 0; j < mm; j++ {
			for i := 0; i < nn; i++ {
				bufN[i] = (f[i] - costAt(i, j)) / eps
			}
			g[j] = eps * (logB[j] - logSumExp(bufN))
		}
		errL1 = 0
		for i := 0; i < nn; i++ {
			rowMass := 0.0
			for j := 0; j < mm; j++ {
				rowMass += math.Exp((f[i] + g[j] - costAt(i, j)) / eps)
			}
			errL1 += math.Abs(rowMass - math.Exp(logA[i]))
		}
		if errL1 < opts.Tol {
			iter++
			break
		}
	}
	pi := make([][]float64, nn)
	for i := range pi {
		pi[i] = make([]float64, mm)
		for j := 0; j < mm; j++ {
			pi[i][j] = math.Exp((f[i] + g[j] - costAt(i, j)) / eps)
		}
	}
	aw := make([]float64, nn)
	bw := make([]float64, mm)
	for i, ri := range rowIdx {
		aw[i] = a[ri] / sa
	}
	for j, cj := range colIdx {
		bw[j] = b[cj] / sb
	}
	roundToFeasible(pi, aw, bw)
	entries := make([]Entry, 0, nn*mm)
	for i := 0; i < nn; i++ {
		for j := 0; j < mm; j++ {
			if mass := pi[i][j]; mass > 0 {
				entries = append(entries, Entry{I: rowIdx[i], J: colIdx[j], Mass: mass})
			}
		}
	}
	plan, err := NewPlan(n, m, entries)
	if err != nil {
		return nil, err
	}
	return &SinkhornResult{Plan: plan, Iterations: iter, MarginalErr: errL1, Converged: errL1 < opts.Tol}, nil
}

// randomSinkhornProblem draws a support, two random (sparse-able) pmfs and
// a squared-Euclidean cost.
func randomSinkhornProblem(r *rand.Rand, n int) (a, b []float64, cost *CostMatrix) {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = -2 + 4*float64(i)/float64(n-1) + 0.1*r.NormFloat64()
	}
	a = make([]float64, n)
	b = make([]float64, n)
	for i := range a {
		if r.Float64() < 0.15 {
			a[i] = 0 // exercise zero-mass state dropping
		} else {
			a[i] = r.Float64()
		}
		if r.Float64() < 0.15 {
			b[i] = 0
		} else {
			b[i] = r.Float64()
		}
	}
	a[0], b[n-1] = 1, 1 // guarantee positive mass
	sa, sb := 0.0, 0.0
	for i := range a {
		sa += a[i]
		sb += b[i]
	}
	for i := range a {
		a[i] /= sa
		b[i] /= sb
	}
	cost, err := NewCostMatrix(xs, xs, SquaredEuclidean)
	if err != nil {
		panic(err)
	}
	return a, b, cost
}

func plansMaxDiff(p, q *Plan) float64 {
	dp, dq := p.Dense(), q.Dense()
	max := 0.0
	for i := range dp {
		for j := range dp[i] {
			if d := math.Abs(dp[i][j] - dq[i][j]); d > max {
				max = d
			}
		}
	}
	return max
}

// TestSinkhornDifferential pins the vectorized solver against the seed
// implementation within 1e-9 on randomized problems, covering the default
// scale-free epsilon, explicit epsilon, and zero-mass dropping.
func TestSinkhornDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 5 + r.Intn(40)
		a, b, cost := randomSinkhornProblem(r, n)
		opts := SinkhornOptions{Tol: 1e-12, MaxIter: 20000}
		if trial%3 == 0 {
			opts.Epsilon = 0.05 + 0.2*r.Float64()
		}
		got, err := Sinkhorn(a, b, cost, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := sinkhornReference(a, b, cost, opts)
		if err != nil {
			t.Fatalf("trial %d (ref): %v", trial, err)
		}
		// The fused error accumulator agrees with the reference's
		// re-materialized check only to float rounding, so the stopping
		// sweep can shift by one when errL1 grazes Tol; the coupling itself
		// must still match to 1e-9.
		if d := got.Iterations - want.Iterations; d < -1 || d > 1 {
			t.Errorf("trial %d: iterations %d vs reference %d", trial, got.Iterations, want.Iterations)
		}
		if d := plansMaxDiff(got.Plan, want.Plan); d > 1e-9 {
			t.Fatalf("trial %d: plan deviates from reference by %v", trial, d)
		}
		if math.Abs(got.MarginalErr-want.MarginalErr) > 1e-9 {
			t.Fatalf("trial %d: marginal err %v vs %v", trial, got.MarginalErr, want.MarginalErr)
		}
	}
}

// TestSinkhornParallelDifferential pins a 160-state problem, well above
// the randomized differential's 5–44 states, to the reference.
func TestSinkhornParallelDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("large problem")
	}
	r := rand.New(rand.NewSource(12))
	n := 160
	a, b, cost := randomSinkhornProblem(r, n)
	opts := SinkhornOptions{Tol: 1e-10, Epsilon: 0.3}
	got, err := Sinkhorn(a, b, cost, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sinkhornReference(a, b, cost, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.Iterations - want.Iterations; d < -1 || d > 1 {
		t.Errorf("iterations %d vs reference %d", got.Iterations, want.Iterations)
	}
	if d := plansMaxDiff(got.Plan, want.Plan); d > 1e-9 {
		t.Fatalf("plan deviates from reference by %v", d)
	}
}

// TestSinkhornParallelRace runs many solves of one problem concurrently
// over a shared cost matrix; run with -race to certify that the solver
// keeps all mutable state (the stabilised kernel included) per call.
func TestSinkhornParallelRace(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	n := 140
	a, b, cost := randomSinkhornProblem(r, n)
	var wg sync.WaitGroup
	results := make([]*SinkhornResult, 6)
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := Sinkhorn(a, b, cost, SinkhornOptions{Tol: 1e-8, Epsilon: 0.3})
			if err != nil {
				t.Error(err)
				return
			}
			results[w] = res
		}(w)
	}
	wg.Wait()
	for w := 1; w < len(results); w++ {
		if results[w] == nil || results[0] == nil {
			t.Fatal("missing result")
		}
		if d := plansMaxDiff(results[0].Plan, results[w].Plan); d > 1e-12 {
			t.Fatalf("concurrent solve %d diverged by %v", w, d)
		}
	}
}

// TestSinkhornSmallEpsilonStabilised pins the log-stabilised loop at ε far
// below the default, where the plain Gibbs kernel underflows: on a
// 100-state grid at 2e-4·(1 + max c) (c/ε up to 5000), and between
// disjoint supports at 1e-4·(1 + max c), where every kernel entry between
// a positive-mass source and a positive-mass target underflows to zero.
// Sinkhorn must converge and match the log-domain reference within 1e-9.
// The same scaling loop over the unabsorbed kernel must report failure on
// both: it stalls on the first, and on the second every kernel row
// underflows, so the 1e-300 floor must not pass for convergence.
func TestSinkhornSmallEpsilonStabilised(t *testing.T) {
	if testing.Short() {
		t.Skip("slow reference solve")
	}
	grid := func(n int, lo, hi float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		return xs
	}
	disjointA := make([]float64, 60)
	disjointB := make([]float64, 60)
	copy(disjointA, gaussPMF(20, 9, 5))
	copy(disjointB[40:], gaussPMF(20, 11, 4))
	for _, tc := range []struct {
		name  string
		xs    []float64
		a, b  []float64
		scale float64
	}{
		{"overlapping", grid(100, -2, 4), gaussPMF(100, 30, 12), gaussPMF(100, 60, 15), 2e-4},
		{"disjoint", grid(60, 0, 1), disjointA, disjointB, 1e-4},
	} {
		cost, err := SquaredCostMatrix(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		opts := SinkhornOptions{Epsilon: tc.scale * (1 + cost.Max())}
		got, err := Sinkhorn(tc.a, tc.b, cost, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Converged {
			t.Fatalf("%s: stabilised Sinkhorn did not converge: %d iterations, error %v", tc.name, got.Iterations, got.MarginalErr)
		}
		want, err := sinkhornReference(tc.a, tc.b, cost, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := got.Iterations - want.Iterations; d < -1 || d > 1 {
			t.Errorf("%s: iterations %d vs reference %d", tc.name, got.Iterations, want.Iterations)
		}
		if d := plansMaxDiff(got.Plan, want.Plan); d > 1e-9 {
			t.Fatalf("%s: plan deviates from reference by %v", tc.name, d)
		}

		plain, err := NewDenseGibbs(cost, opts.Epsilon)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SinkhornOp(tc.a, tc.b, plain, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Converged {
			t.Errorf("%s: unabsorbed loop reports convergence after %d iterations (error %v); either the stabilisation is untested or an underflowed kernel row passed the check", tc.name, res.Iterations, res.MarginalErr)
		}
	}
}
