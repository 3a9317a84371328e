package ot

import (
	"math"
	"math/rand"
	"testing"
)

// smoothPMF draws a strictly positive pmf (uniform floor plus random bumps)
// so every plan row carries resolvable mass and conditional comparisons are
// well-scaled.
func smoothPMF(r *rand.Rand, n int) []float64 {
	pmf := make([]float64, n)
	total := 0.0
	for i := range pmf {
		pmf[i] = 0.2 + r.Float64()
		total += pmf[i]
	}
	for i := range pmf {
		pmf[i] /= total
	}
	return pmf
}

// mustConditional expands a RowPlan row into a dense length-m probability
// vector, failing the test on a zero-mass row.
func mustConditional(t *testing.T, p RowPlan, i, m int) []float64 {
	t.Helper()
	out := denseConditional(p, i, m)
	if out == nil {
		t.Fatalf("row %d has no mass", i)
	}
	return out
}

// tightOpts drives a solver essentially to the fixpoint so two convergent
// algorithms can be compared at the 1e-9 differential contract.
var tightOpts = SinkhornOptions{Tol: 1e-13, MaxIter: 200000}

// TestSinkhornOpMatchesLogDomainSinkhorn pins the scaling-domain operator
// solver against the log-domain reference solver — two different algorithms
// for the same strictly convex problem — within 1e-9 on row conditionals
// and marginals.
func TestSinkhornOpMatchesLogDomainSinkhorn(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, sizes := range [][]int{{6}, {4, 3}, {3, 1, 3}} {
		grids := randomGrids(r, sizes)
		eps := 1 + r.Float64()
		dk := denseOverProduct(t, grids, eps)
		n, _ := dk.Dims()
		a := smoothPMF(r, n)
		b := smoothPMF(r, n)

		opRes, err := SinkhornOp(a, b, dk, tightOpts)
		if err != nil {
			t.Fatal(err)
		}
		if !opRes.Converged {
			t.Fatalf("shape %v: SinkhornOp did not converge (err %v)", sizes, opRes.MarginalErr)
		}

		points := productPointsOf(grids)
		cost, err := NewCostMatrixPoints(points, points, SquaredEuclideanPoints)
		if err != nil {
			t.Fatal(err)
		}
		denseRes, err := sinkhornReference(a, b, cost, SinkhornOptions{Epsilon: eps, Tol: tightOpts.Tol, MaxIter: tightOpts.MaxIter})
		if err != nil {
			t.Fatal(err)
		}
		if !denseRes.Converged {
			t.Fatalf("shape %v: reference Sinkhorn did not converge", sizes)
		}

		for i := 0; i < n; i++ {
			got := mustConditional(t, opRes.Plan, i, n)
			want := mustConditional(t, denseRes.Plan, i, n)
			for j := range got {
				if math.Abs(got[j]-want[j]) > 1e-9 {
					t.Fatalf("shape %v: conditional (%d,%d) = %v, log-domain %v", sizes, i, j, got[j], want[j])
				}
			}
			if d := math.Abs(opRes.Plan.RowMass(i) - denseRes.Plan.RowMass(i)); d > 1e-9 {
				t.Fatalf("shape %v: row mass %d differs by %v", sizes, i, d)
			}
		}
		if err := opRes.Plan.CheckMarginals(a, b, 1e-9); err != nil {
			t.Fatalf("shape %v: %v", sizes, err)
		}
	}
}

// TestSinkhornOpSeparableMatchesDense pins the factored Kronecker path
// against the dense operator path — same algorithm, different kernel
// representation — within 1e-9 on randomized product grids.
func TestSinkhornOpSeparableMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, sizes := range [][]int{{4, 4}, {1, 5, 2}, {3, 3, 3}} {
		grids := randomGrids(r, sizes)
		eps := 1 + r.Float64()
		dk := denseOverProduct(t, grids, eps)
		sk, err := NewSeparableGibbs(grids, eps)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := dk.Dims()
		a := smoothPMF(r, n)
		b := smoothPMF(r, n)

		dRes, err := SinkhornOp(a, b, dk, tightOpts)
		if err != nil {
			t.Fatal(err)
		}
		sRes, err := SinkhornOp(a, b, sk, tightOpts)
		if err != nil {
			t.Fatal(err)
		}
		if !dRes.Converged || !sRes.Converged {
			t.Fatalf("shape %v: not converged", sizes)
		}
		for i := 0; i < n; i++ {
			got := mustConditional(t, sRes.Plan, i, n)
			want := mustConditional(t, dRes.Plan, i, n)
			for j := range got {
				if math.Abs(got[j]-want[j]) > 1e-9 {
					t.Fatalf("shape %v: conditional (%d,%d) = %v, dense %v", sizes, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestBregmanSeparableMatchesDense pins the separable barycenter against
// the dense-kernel oracle within 1e-9 on randomized product grids.
func TestBregmanSeparableMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, sizes := range [][]int{{8}, {4, 3}, {2, 1, 4}, {3, 3, 2}} {
		grids := randomGrids(r, sizes)
		eps := 1 + r.Float64()
		dk := denseOverProduct(t, grids, eps)
		sk, err := NewSeparableGibbs(grids, eps)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := dk.Dims()
		pmfs := [][]float64{smoothPMF(r, n), smoothPMF(r, n)}
		lams := []float64{0.4, 0.6}
		opts := BregmanOptions{Tol: 1e-12, MaxIter: 20000}
		want, err := BregmanBarycenterOp(dk, pmfs, lams, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BregmanBarycenterOp(sk, pmfs, lams, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("shape %v: barycenter[%d] = %v, dense %v", sizes, i, got[i], want[i])
			}
		}
	}
}

// TestFactoredPlanRowSemantics checks the lazy-row plan surface: zero-mass
// rows report ok == false, conditionals are normalized pmfs over valid
// targets, and marginals honour the scaling identities.
func TestFactoredPlanRowSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	grids := randomGrids(r, []int{4, 3})
	sk, err := NewSeparableGibbs(grids, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := sk.Dims()
	a := smoothPMF(r, n)
	a[3] = 0 // a zero-mass source state
	total := 0.0
	for _, v := range a {
		total += v
	}
	for i := range a {
		a[i] /= total
	}
	b := smoothPMF(r, n)
	res, err := SinkhornOp(a, b, sk, SinkhornOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Plan
	if p.RowMass(3) != 0 {
		t.Fatalf("zero-mass state has row mass %v", p.RowMass(3))
	}
	if _, _, ok := p.AppendRowConditional(nil, nil, 3); ok {
		t.Fatal("zero-mass row returned a conditional")
	}
	for _, i := range []int{0, 5, n - 1} {
		targets, probs, ok := p.AppendRowConditional(nil, nil, i)
		if !ok {
			t.Fatalf("row %d has no mass", i)
		}
		sum := 0.0
		for k, pr := range probs {
			if pr <= 0 || targets[k] < 0 || int(targets[k]) >= n {
				t.Fatalf("row %d: invalid atom (%d, %v)", i, targets[k], pr)
			}
			sum += pr
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d conditional sums to %v", i, sum)
		}
	}
	if got := p.TotalMass(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("total mass %v", got)
	}
	sm := p.SourceMarginal()
	for i := range sm {
		if math.Abs(sm[i]-a[i]) > 1e-9 {
			t.Fatalf("source marginal %d: %v vs %v", i, sm[i], a[i])
		}
	}
}

func TestSinkhornOpValidation(t *testing.T) {
	grids := [][]float64{{0, 1, 2}}
	sk, err := NewSeparableGibbs(grids, 1)
	if err != nil {
		t.Fatal(err)
	}
	u := []float64{0.5, 0.3, 0.2}
	if _, err := SinkhornOp(u, u, nil, SinkhornOptions{}); err == nil {
		t.Error("nil operator accepted")
	}
	if _, err := SinkhornOp([]float64{1}, u, sk, SinkhornOptions{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := SinkhornOp([]float64{-1, 1, 1}, u, sk, SinkhornOptions{}); err == nil {
		t.Error("negative mass accepted")
	}
	if _, err := SinkhornOp([]float64{math.NaN(), 1, 1}, u, sk, SinkhornOptions{}); err == nil {
		t.Error("NaN mass accepted")
	}
	if _, err := SinkhornOp([]float64{0, 0, 0}, u, sk, SinkhornOptions{}); err == nil {
		t.Error("zero mass accepted")
	}
	if _, err := SinkhornOp(u, []float64{1, 1, 1}, sk, SinkhornOptions{}); err == nil {
		t.Error("unbalanced problem accepted")
	}
	if _, err := SinkhornOp(u, u, sk, SinkhornOptions{Tol: math.NaN()}); err == nil {
		t.Error("NaN tolerance accepted")
	}
}

// TestSolverOptionsRejectNaN audits the `<= 0 means default` holes: NaN
// epsilon or tolerance must fail loudly in every solver entry point rather
// than poisoning the Gibbs kernel or disabling the stopping rule.
func TestSolverOptionsRejectNaN(t *testing.T) {
	grid := []float64{0, 1, 2}
	cost, err := SquaredCostMatrix(grid)
	if err != nil {
		t.Fatal(err)
	}
	a := []float64{0.5, 0.25, 0.25}
	for _, opts := range []SinkhornOptions{
		{Epsilon: math.NaN()},
		{Epsilon: math.Inf(1)},
		{Tol: math.NaN()},
		{Tol: math.Inf(1)},
	} {
		if _, err := Sinkhorn(a, a, cost, opts); err == nil {
			t.Errorf("Sinkhorn accepted %+v", opts)
		}
	}
	pmfs := [][]float64{a, a}
	lams := []float64{0.5, 0.5}
	for _, opts := range []BregmanOptions{
		{Epsilon: math.NaN()},
		{Epsilon: math.Inf(1)},
		{Tol: math.NaN()},
		{Tol: math.Inf(1)},
	} {
		if _, err := BregmanBarycenter(grid, pmfs, lams, opts); err == nil {
			t.Errorf("BregmanBarycenter accepted %+v", opts)
		}
	}
}

// TestBregmanAllocsIndependentOfIterations pins the allocation-free
// iteration: a solve running 16× more sweeps must allocate the same (setup
// only), so allocations/op cannot scale with MaxIter.
func TestBregmanAllocsIndependentOfIterations(t *testing.T) {
	grid := make([]float64, 32)
	for i := range grid {
		grid[i] = float64(i)
	}
	r := rand.New(rand.NewSource(25))
	pmfs := [][]float64{smoothPMF(r, 32), smoothPMF(r, 32)}
	lams := []float64{0.5, 0.5}
	allocs := func(maxIter int) float64 {
		return testing.AllocsPerRun(10, func() {
			// Tol far below reachable: the loop always runs MaxIter sweeps.
			if _, err := BregmanBarycenter(grid, pmfs, lams, BregmanOptions{MaxIter: maxIter, Tol: 1e-300}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(4), allocs(64)
	if long > short+1 {
		t.Fatalf("allocations grew with iterations: %v at 4 iters, %v at 64", short, long)
	}
}
