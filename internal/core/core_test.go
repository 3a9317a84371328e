package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"otfair/internal/dataset"
	"otfair/internal/fairmetrics"
	"otfair/internal/ot"
	"otfair/internal/rng"
	"otfair/internal/simulate"
	"otfair/internal/stat"
	"otfair/internal/vec"
)

// paperData draws the paper's simulation scenario.
func paperData(t *testing.T, seed uint64, nR, nA int) (research, archive *dataset.Table) {
	t.Helper()
	s, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	research, archive, err = s.ResearchArchive(r, nR, nA)
	if err != nil {
		t.Fatal(err)
	}
	return research, archive
}

func TestDesignShapes(t *testing.T) {
	research, _ := paperData(t, 1, 500, 0)
	plan, err := Design(research, Options{NQ: 50})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Dim != 2 {
		t.Fatalf("dim = %d", plan.Dim)
	}
	for u := 0; u < 2; u++ {
		for k := 0; k < 2; k++ {
			cell := plan.Cell(u, k)
			if len(cell.Q) != 50 {
				t.Errorf("(u=%d,k=%d) |Q| = %d", u, k, len(cell.Q))
			}
			for s := 0; s < 2; s++ {
				if math.Abs(vec.Sum(cell.PMF[s])-1) > 1e-9 {
					t.Errorf("(u=%d,k=%d,s=%d) pmf mass = %v", u, k, s, vec.Sum(cell.PMF[s]))
				}
				if err := checkMarginals(cell.Plans[s], cell.PMF[s], cell.Target[s], 1e-6); err != nil {
					t.Errorf("(u=%d,k=%d,s=%d): %v", u, k, s, err)
				}
			}
			if math.Abs(vec.Sum(cell.Bary)-1) > 1e-9 {
				t.Errorf("(u=%d,k=%d) barycenter mass = %v", u, k, vec.Sum(cell.Bary))
			}
			// Support spans the pooled research range.
			pooled := research.UColumn(u, k)
			lo, hi, _ := stat.MinMax(pooled)
			if cell.Q[0] != lo || cell.Q[len(cell.Q)-1] != hi {
				t.Errorf("(u=%d,k=%d) support [%v,%v] vs data [%v,%v]",
					u, k, cell.Q[0], cell.Q[len(cell.Q)-1], lo, hi)
			}
		}
	}
	// Group sizes recorded.
	total := 0
	for _, n := range plan.GroupSizes {
		total += n
	}
	if total != research.Len() {
		t.Errorf("group sizes sum to %d, want %d", total, research.Len())
	}
}

func TestDesignValidation(t *testing.T) {
	research, _ := paperData(t, 2, 200, 0)
	if _, err := Design(nil, Options{}); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := Design(dataset.MustTable(1, nil), Options{}); err == nil {
		t.Error("empty table accepted")
	}
	if _, err := Design(research, Options{NQ: 1}); err == nil {
		t.Error("NQ=1 accepted")
	}
	if _, err := Design(research, Options{T: 1.5}); err == nil {
		t.Error("T=1.5 accepted")
	}
	if _, err := Design(research, Options{Amount: 2, AmountSet: true}); err == nil {
		t.Error("Amount=2 accepted")
	}
	// Missing group.
	oneGroup := dataset.MustTable(1, nil)
	for i := 0; i < 50; i++ {
		oneGroup.Append(dataset.Record{X: []float64{float64(i)}, S: 0, U: 0})
	}
	if _, err := Design(oneGroup, Options{}); err == nil {
		t.Error("missing groups accepted")
	}
}

func TestRepairQuenchesDependenceOnSample(t *testing.T) {
	research, _ := paperData(t, 3, 500, 0)
	plan, err := Design(research, Options{NQ: 50})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewRepairer(plan, rng.New(99), RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := rp.RepairTable(research)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fairmetrics.Config{}
	before, err := fairmetrics.E(research, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := fairmetrics.E(repaired, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if after > before/5 {
		t.Errorf("on-sample repair: E %v -> %v (want ≥5x reduction)", before, after)
	}
}

func TestRepairQuenchesDependenceOffSample(t *testing.T) {
	research, archive := paperData(t, 4, 500, 5000)
	plan, err := Design(research, Options{NQ: 50})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewRepairer(plan, rng.New(100), RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := rp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fairmetrics.Config{}
	before, _ := fairmetrics.E(archive, cfg)
	after, _ := fairmetrics.E(repaired, cfg)
	if after > before/3 {
		t.Errorf("off-sample repair: E %v -> %v (want ≥3x reduction)", before, after)
	}
	// Cardinalities preserved per group.
	cb := archive.Counts()
	ca := repaired.Counts()
	for g, n := range cb {
		if ca[g] != n {
			t.Errorf("group %v cardinality %d -> %d", g, n, ca[g])
		}
	}
	// Repaired values live on the supports.
	for i := 0; i < repaired.Len(); i++ {
		rec := repaired.At(i)
		for k, v := range rec.X {
			cell := plan.Cell(rec.U, k)
			found := false
			for _, q := range cell.Q {
				if q == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("repaired value %v not on support (u=%d,k=%d)", v, rec.U, k)
			}
		}
	}
}

func TestRepairDistributionMatchesTarget(t *testing.T) {
	// The repaired s-conditional sample should be distributed like the
	// barycenter: compare repaired empirical CDF to the target pmf by W1.
	research, archive := paperData(t, 5, 1000, 8000)
	plan, err := Design(research, Options{NQ: 50})
	if err != nil {
		t.Fatal(err)
	}
	rp, _ := NewRepairer(plan, rng.New(101), RepairOptions{})
	repaired, err := rp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2; u++ {
		for s := 0; s < 2; s++ {
			col := repaired.GroupColumn(dataset.Group{U: u, S: s}, 0)
			if len(col) == 0 {
				continue
			}
			cell := plan.Cell(u, 0)
			emp, err := empirical(col)
			if err != nil {
				t.Fatal(err)
			}
			target, err := ot.OnGrid(cell.Q, cell.Target[s])
			if err != nil {
				t.Fatal(err)
			}
			d, err := w1(emp, target)
			if err != nil {
				t.Fatal(err)
			}
			// Scale: supports span ~8 units; W1 within a few grid cells.
			if d > 0.3 {
				t.Errorf("(u=%d,s=%d) repaired vs target W1 = %v", u, s, d)
			}
		}
	}
}

func TestRepairRejectsUnlabelled(t *testing.T) {
	research, _ := paperData(t, 6, 300, 0)
	plan, _ := Design(research, Options{})
	rp, _ := NewRepairer(plan, rng.New(1), RepairOptions{})
	_, err := rp.RepairRecord(dataset.Record{X: []float64{0, 0}, S: dataset.SUnknown, U: 0})
	if err == nil {
		t.Error("unlabelled record accepted")
	}
	if _, err := rp.RepairValue(0, 5, 0, 1.0); err == nil {
		t.Error("bad s accepted")
	}
	if _, err := rp.RepairValue(7, 0, 0, 1.0); err == nil {
		t.Error("bad u accepted")
	}
	if _, err := rp.RepairValue(0, 0, 9, 1.0); err == nil {
		t.Error("bad feature accepted")
	}
	// A NaN value fails like the labels above: before any RNG call, count
	// or dither, so the next draw matches a twin that never saw it.
	opts := RepairOptions{KernelDither: true, Jitter: true}
	a, _ := NewRepairer(plan, rng.New(3), opts)
	b, _ := NewRepairer(plan, rng.New(3), opts)
	if _, err := a.RepairValue(0, 0, 0, math.NaN()); err == nil {
		t.Error("NaN feature accepted")
	}
	if a.Diagnostics() != (Diagnostics{}) {
		t.Errorf("NaN feature counted: %+v", a.Diagnostics())
	}
	va, errA := a.RepairValue(1, 1, 1, 0.3)
	vb, errB := b.RepairValue(1, 1, 1, 0.3)
	if errA != nil || errB != nil || math.Float64bits(va) != math.Float64bits(vb) {
		t.Errorf("draw after a NaN: %v (%v), twin %v (%v)", va, errA, vb, errB)
	}
}

func TestRepairClampsAndCounts(t *testing.T) {
	research, _ := paperData(t, 7, 300, 0)
	plan, _ := Design(research, Options{NQ: 20})
	rp, _ := NewRepairer(plan, rng.New(2), RepairOptions{})
	// Far outside the research range.
	v, err := rp.RepairValue(0, 0, 0, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	cell := plan.Cell(0, 0)
	onGrid := false
	for _, q := range cell.Q {
		if v == q {
			onGrid = true
		}
	}
	if !onGrid {
		t.Errorf("clamped repair %v not on grid", v)
	}
	if rp.Diagnostics().Clamped != 1 {
		t.Errorf("clamp count = %d", rp.Diagnostics().Clamped)
	}
	if rp.Diagnostics().Repaired != 1 {
		t.Errorf("repair count = %d", rp.Diagnostics().Repaired)
	}
}

func TestRepairDeterministicGivenSeed(t *testing.T) {
	research, archive := paperData(t, 8, 300, 500)
	plan, _ := Design(research, Options{})
	rp1, _ := NewRepairer(plan, rng.New(55), RepairOptions{})
	rp2, _ := NewRepairer(plan, rng.New(55), RepairOptions{})
	a, err := rp1.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rp2.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i).X[0] != b.At(i).X[0] || a.At(i).X[1] != b.At(i).X[1] {
			t.Fatalf("record %d differs under identical seeds", i)
		}
	}
}

func TestRepairStream(t *testing.T) {
	research, archive := paperData(t, 9, 300, 700)
	plan, _ := Design(research, Options{})
	rp, _ := NewRepairer(plan, rng.New(3), RepairOptions{})
	var out []dataset.Record
	n, err := rp.RepairStream(dataset.NewSliceStream(archive), func(r dataset.Record) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != archive.Len() || len(out) != archive.Len() {
		t.Fatalf("streamed %d of %d", n, archive.Len())
	}
	// Stream and batch repairs agree in distribution: same group counts.
	if out[0].S == dataset.SUnknown {
		t.Error("stream dropped labels")
	}
}

func TestRepairStreamDimensionMismatch(t *testing.T) {
	research, _ := paperData(t, 10, 300, 0)
	plan, _ := Design(research, Options{})
	rp, _ := NewRepairer(plan, rng.New(4), RepairOptions{})
	wrong := dataset.MustTable(3, nil)
	if _, err := rp.RepairStream(dataset.NewSliceStream(wrong), func(dataset.Record) error { return nil }); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := rp.RepairTable(wrong); err == nil {
		t.Error("dimension mismatch table accepted")
	}
}

func TestJitterKeepsValuesOffGridButInRange(t *testing.T) {
	research, archive := paperData(t, 11, 400, 400)
	plan, _ := Design(research, Options{NQ: 30})
	rp, _ := NewRepairer(plan, rng.New(5), RepairOptions{Jitter: true})
	repaired, err := rp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	offGrid := 0
	for i := 0; i < repaired.Len(); i++ {
		rec := repaired.At(i)
		for k, v := range rec.X {
			cell := plan.Cell(rec.U, k)
			if v < cell.Q[0]-1e-9 || v > cell.Q[len(cell.Q)-1]+1e-9 {
				t.Fatalf("jittered value %v outside support", v)
			}
			exact := false
			for _, q := range cell.Q {
				if q == v {
					exact = true
				}
			}
			if !exact {
				offGrid++
			}
		}
	}
	if offGrid == 0 {
		t.Error("jitter produced no off-grid values")
	}
}

func TestPartialRepairInterpolates(t *testing.T) {
	research, archive := paperData(t, 12, 600, 3000)
	cfg := fairmetrics.Config{}
	eBefore, _ := fairmetrics.E(archive, cfg)

	var prevE float64 = math.Inf(1)
	var es []float64
	for _, amount := range []float64{0.25, 0.5, 1.0} {
		plan, err := Design(research, Options{Amount: amount, AmountSet: true})
		if err != nil {
			t.Fatal(err)
		}
		rp, _ := NewRepairer(plan, rng.New(6), RepairOptions{})
		repaired, err := rp.RepairTable(archive)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := fairmetrics.E(repaired, cfg)
		es = append(es, e)
		if e > eBefore {
			t.Errorf("amount %v left E above unrepaired: %v > %v", amount, e, eBefore)
		}
		prevE = e
	}
	_ = prevE
	// Full repair must beat quarter repair.
	if es[2] >= es[0] {
		t.Errorf("E by amount {0.25,0.5,1}: %v — full repair should be fairest", es)
	}
}

func TestDamageIncreasesWithAmount(t *testing.T) {
	research, archive := paperData(t, 13, 600, 2000)
	var prev float64 = -1
	for _, amount := range []float64{0.25, 1.0} {
		plan, err := Design(research, Options{Amount: amount, AmountSet: true})
		if err != nil {
			t.Fatal(err)
		}
		rp, _ := NewRepairer(plan, rng.New(7), RepairOptions{})
		repaired, _ := rp.RepairTable(archive)
		dmg, err := fairmetrics.Damage(archive, repaired)
		if err != nil {
			t.Fatal(err)
		}
		if dmg <= prev {
			t.Errorf("damage %v at amount %v did not grow from %v", dmg, amount, prev)
		}
		prev = dmg
	}
}

func TestGeometricRepairOnSample(t *testing.T) {
	research, _ := paperData(t, 14, 500, 0)
	repaired, err := GeometricRepair(research, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fairmetrics.Config{}
	before, _ := fairmetrics.E(research, cfg)
	after, _ := fairmetrics.E(repaired, cfg)
	if after > before/10 {
		t.Errorf("geometric repair: E %v -> %v (want ≥10x reduction)", before, after)
	}
	// Labels and cardinality untouched.
	if repaired.Len() != research.Len() {
		t.Fatal("cardinality changed")
	}
	for i := 0; i < research.Len(); i++ {
		if repaired.At(i).S != research.At(i).S || repaired.At(i).U != research.At(i).U {
			t.Fatal("labels changed")
		}
	}
}

func TestGeometricRepairTZeroIdentityForS0(t *testing.T) {
	// t=0 leaves s=0 points untouched and moves s=1 onto the s=0 sample.
	research, _ := paperData(t, 15, 200, 0)
	repaired, err := GeometricRepair(research, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < research.Len(); i++ {
		if research.At(i).S == 0 {
			for k := range research.At(i).X {
				if research.At(i).X[k] != repaired.At(i).X[k] {
					t.Fatalf("t=0 moved an s=0 point")
				}
			}
		}
	}
}

func TestGeometricRepairValidation(t *testing.T) {
	research, _ := paperData(t, 16, 100, 0)
	if _, err := GeometricRepair(nil, 0.5); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := GeometricRepair(research, -0.1); err == nil {
		t.Error("t < 0 accepted")
	}
	if _, err := GeometricRepair(research, 1.1); err == nil {
		t.Error("t > 1 accepted")
	}
	oneClass := dataset.MustTable(1, nil)
	for i := 0; i < 10; i++ {
		oneClass.Append(dataset.Record{X: []float64{float64(i)}, S: 0, U: 0})
	}
	if _, err := GeometricRepair(oneClass, 0.5); err == nil {
		t.Error("single-class u population accepted")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	research, archive := paperData(t, 18, 400, 300)
	plan, err := Design(research, Options{NQ: 40})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dim != plan.Dim || back.Opts.NQ != plan.Opts.NQ {
		t.Fatalf("metadata lost: %+v", back.Opts)
	}
	// The deserialized plan must repair identically under the same seed.
	rp1, _ := NewRepairer(plan, rng.New(77), RepairOptions{})
	rp2, _ := NewRepairer(back, rng.New(77), RepairOptions{})
	a, err := rp1.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rp2.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		for k := range a.At(i).X {
			if a.At(i).X[k] != b.At(i).X[k] {
				t.Fatalf("record %d feature %d differs after round-trip", i, k)
			}
		}
	}
	// Group sizes survive.
	if back.GroupSizes[dataset.Group{U: 0, S: 0}] != plan.GroupSizes[dataset.Group{U: 0, S: 0}] {
		t.Error("group sizes lost")
	}
}

func TestReadPlanRejectsCorruption(t *testing.T) {
	research, _ := paperData(t, 19, 300, 0)
	plan, _ := Design(research, Options{})
	cases := []func(*bytes.Buffer){
		func(b *bytes.Buffer) { b.Reset(); b.WriteString("{") },
		func(b *bytes.Buffer) {
			s := b.String()
			b.Reset()
			b.WriteString(replaceOnce(s, `"version":1`, `"version":99`))
		},
		func(b *bytes.Buffer) {
			s := b.String()
			b.Reset()
			b.WriteString(replaceOnce(s, `"dim":2`, `"dim":-1`))
		},
		func(b *bytes.Buffer) {
			s := b.String()
			b.Reset()
			b.WriteString(replaceOnce(s, `"kernel":"gaussian"`, `"kernel":"bogus"`))
		},
	}
	for i, corrupt := range cases {
		var buf bytes.Buffer
		if err := plan.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		corrupt(&buf)
		if _, err := ReadPlan(&buf); err == nil {
			t.Errorf("corruption case %d accepted", i)
		}
	}
}

func TestDegenerateFeatureRepairs(t *testing.T) {
	// A constant feature column must survive design and repair.
	tbl := dataset.MustTable(2, nil)
	r := rng.New(20)
	for i := 0; i < 200; i++ {
		u := i % 2
		s := (i / 2) % 2
		tbl.Append(dataset.Record{X: []float64{r.Norm(), 42}, S: s, U: u})
	}
	plan, err := Design(tbl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Cell(0, 1).Degenerate {
		t.Error("constant feature not flagged degenerate")
	}
	rp, _ := NewRepairer(plan, rng.New(21), RepairOptions{})
	out, err := rp.RepairTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < out.Len(); i++ {
		if out.At(i).X[1] != 42 {
			t.Fatalf("degenerate feature moved to %v", out.At(i).X[1])
		}
	}
}

func TestSolverVariantsAgree(t *testing.T) {
	research, archive := paperData(t, 22, 400, 2000)
	cfg := fairmetrics.Config{}
	var es []float64
	for _, solver := range []SolverKind{SolverMonotone, SolverSimplex, SolverSinkhorn} {
		plan, err := Design(research, Options{NQ: 30, Solver: solver})
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		rp, _ := NewRepairer(plan, rng.New(23), RepairOptions{})
		repaired, err := rp.RepairTable(archive)
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		e, err := fairmetrics.E(repaired, cfg)
		if err != nil {
			t.Fatal(err)
		}
		es = append(es, e)
	}
	before, _ := fairmetrics.E(archive, cfg)
	for i, e := range es {
		if e > before/3 {
			t.Errorf("solver %d: E %v vs unrepaired %v", i, e, before)
		}
	}
}

// TestDesignRejectsNonConvergedSinkhorn: an entropic plan whose iteration
// runs out before its marginal error meets the tolerance must fail the
// design with a typed *ConvergenceError, not ship as a valid plan. At
// ε = 1e-3 on this 100-state cell (about 3e-5·(1 + max c)) the log-domain
// reference solver of package ot also stops at MaxIter, with the same
// 1.2e-3 L1 error on the first cell, so the failure is the problem's, not
// the solver's.
func TestDesignRejectsNonConvergedSinkhorn(t *testing.T) {
	research, _ := paperData(t, 1, 500, 0)
	_, err := Design(research, Options{NQ: 100, Solver: SolverSinkhorn, SinkhornEpsilon: 1e-3})
	var ce *ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("design returned %v, want a *ConvergenceError", err)
	}
	if ce.Iterations != 10000 || !(ce.MarginalErr > ce.Tol) || ce.Tol != 1e-9 {
		t.Fatalf("convergence error %+v, want 10000 iterations and an error above the 1e-9 tolerance", *ce)
	}
	// The default ε on the same cells converges and designs.
	if _, err := Design(research, Options{NQ: 100, Solver: SolverSinkhorn}); err != nil {
		t.Fatalf("default-epsilon Sinkhorn design failed: %v", err)
	}
}

func TestBarycenterVariantsAgree(t *testing.T) {
	research, archive := paperData(t, 24, 400, 1500)
	cfg := fairmetrics.Config{}
	before, _ := fairmetrics.E(archive, cfg)
	for _, b := range []BarycenterKind{BarycenterQuantile, BarycenterBregman} {
		plan, err := Design(research, Options{NQ: 30, Barycenter: b})
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		rp, _ := NewRepairer(plan, rng.New(25), RepairOptions{})
		repaired, err := rp.RepairTable(archive)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := fairmetrics.E(repaired, cfg)
		if e > before/3 {
			t.Errorf("barycenter %v: E %v vs unrepaired %v", b, e, before)
		}
	}
}

func TestParseHelpers(t *testing.T) {
	for _, name := range []string{"monotone", "simplex", "sinkhorn"} {
		s, err := ParseSolver(name)
		if err != nil || s.String() != name {
			t.Errorf("solver %q: %v %v", name, s, err)
		}
	}
	if _, err := ParseSolver("magic"); err == nil {
		t.Error("unknown solver accepted")
	}
	for _, name := range []string{"quantile", "bregman"} {
		b, err := ParseBarycenter(name)
		if err != nil || b.String() != name {
			t.Errorf("barycenter %q: %v %v", name, b, err)
		}
	}
	if _, err := ParseBarycenter("magic"); err == nil {
		t.Error("unknown barycenter accepted")
	}
}

func TestTransportCostPositiveForSeparatedGroups(t *testing.T) {
	research, _ := paperData(t, 26, 400, 0)
	plan, _ := Design(research, Options{})
	if c := plan.TransportCost(0, 0); !(c > 0) {
		t.Errorf("transport cost = %v", c)
	}
}

// replaceOnce is strings.Replace(s, old, new, 1) without importing strings
// at top level in multiple test files.
func replaceOnce(s, old, new string) string {
	i := bytes.Index([]byte(s), []byte(old))
	if i < 0 {
		return s
	}
	return s[:i] + new + s[i+len(old):]
}
