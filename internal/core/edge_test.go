package core

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"otfair/internal/dataset"
	"otfair/internal/kde"
	"otfair/internal/rng"
)

// Edge-case and failure-injection tests for the repair pipeline.

func TestEmptyRowFallback(t *testing.T) {
	// A compact kernel with sparse, clustered research data leaves interior
	// grid cells with zero pmf mass; archival points landing there must
	// fall back to the nearest massive row and be counted.
	tbl := dataset.MustTable(1, nil)
	r := rng.New(51)
	for i := 0; i < 60; i++ {
		// Two tight clusters far apart per group.
		base := -10.0
		if i%2 == 0 {
			base = 10
		}
		for s := 0; s < 2; s++ {
			for u := 0; u < 2; u++ {
				tbl.Append(dataset.Record{
					X: []float64{base + 0.1*r.Norm() + float64(s)},
					S: s, U: u,
				})
			}
		}
	}
	plan, err := Design(tbl, Options{NQ: 80, Kernel: kde.Epanechnikov})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewRepairer(plan, rng.New(52), RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Repair a point in the empty middle region.
	v, err := rp.RepairValue(0, 0, 0, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(v) {
		t.Fatal("NaN repair")
	}
	if rp.Diagnostics().EmptyRowFallbacks == 0 {
		t.Error("fallback not counted for empty-region input")
	}
}

func TestRepairValueAlwaysOnSupportProperty(t *testing.T) {
	research, _ := paperData(t, 53, 400, 0)
	plan, err := Design(research, Options{NQ: 40})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewRepairer(plan, rng.New(54), RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	err = quick.Check(func(raw float64, uBit, sBit bool) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		x := math.Mod(raw, 100)
		u, s := 0, 0
		if uBit {
			u = 1
		}
		if sBit {
			s = 1
		}
		v, err := rp.RepairValue(u, s, 0, x)
		if err != nil {
			return false
		}
		cell := plan.Cell(u, 0)
		for _, q := range cell.Q {
			if q == v {
				return true
			}
		}
		return false
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestDesignWithAllKernels(t *testing.T) {
	research, _ := paperData(t, 55, 400, 0)
	for _, k := range []kde.Kernel{kde.Gaussian, kde.Epanechnikov, kde.Triangular, kde.Uniform, kde.Biweight} {
		plan, err := Design(research, Options{NQ: 40, Kernel: k})
		if err != nil {
			t.Fatalf("kernel %v: %v", k, err)
		}
		rp, err := NewRepairer(plan, rng.New(56), RepairOptions{KernelDither: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rp.RepairValue(0, 0, 0, 0.5); err != nil {
			t.Fatalf("kernel %v repair: %v", k, err)
		}
	}
}

func TestDesignWithAllBandwidthRules(t *testing.T) {
	research, _ := paperData(t, 57, 300, 0)
	for _, b := range []kde.Bandwidth{kde.Silverman, kde.Scott, kde.LSCV} {
		if _, err := Design(research, Options{NQ: 30, Bandwidth: b}); err != nil {
			t.Fatalf("bandwidth %v: %v", b, err)
		}
	}
}

func TestSerializeRoundTripPropertyOverOptions(t *testing.T) {
	research, _ := paperData(t, 58, 300, 0)
	variants := []Options{
		{NQ: 20},
		{NQ: 35, T: 0.25},
		{NQ: 25, Amount: 0.5, AmountSet: true},
		{NQ: 20, Solver: SolverSimplex},
		{NQ: 20, Solver: SolverSinkhorn},
		{NQ: 20, Barycenter: BarycenterBregman},
		{NQ: 20, Kernel: kde.Epanechnikov, Bandwidth: kde.Scott},
	}
	for i, opts := range variants {
		plan, err := Design(research, opts)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		var buf bytes.Buffer
		if err := plan.WriteJSON(&buf); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		back, err := ReadPlan(&buf)
		if err != nil {
			t.Fatalf("variant %d read: %v", i, err)
		}
		if back.Opts.NQ != plan.Opts.NQ || back.Opts.Solver != plan.Opts.Solver ||
			back.Opts.Barycenter != plan.Opts.Barycenter || back.Opts.Kernel != plan.Opts.Kernel {
			t.Errorf("variant %d: options lost: %+v vs %+v", i, back.Opts, plan.Opts)
		}
		for u := 0; u < 2; u++ {
			for k := 0; k < plan.Dim; k++ {
				a, b := plan.Cell(u, k), back.Cell(u, k)
				if len(a.Q) != len(b.Q) {
					t.Fatalf("variant %d: support size changed", i)
				}
				for s := 0; s < 2; s++ {
					if a.H[s] != b.H[s] {
						t.Errorf("variant %d: bandwidth lost", i)
					}
					if a.Plans[s].NNZ() != b.Plans[s].NNZ() {
						t.Errorf("variant %d: plan atoms changed", i)
					}
				}
			}
		}
	}
}

func TestRepairTinyResearchSet(t *testing.T) {
	// Two points per group — the extreme small-data regime of Figure 3.
	tbl := dataset.MustTable(1, nil)
	r := rng.New(59)
	for i := 0; i < 2; i++ {
		for _, g := range dataset.Groups() {
			tbl.Append(dataset.Record{X: []float64{r.Norm() + float64(g.S)}, S: g.S, U: g.U})
		}
	}
	plan, err := Design(tbl, Options{NQ: 10})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewRepairer(plan, rng.New(60), RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := rp.RepairValue(0, 1, 0, r.Norm()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGeometricRepairSingletonGroups(t *testing.T) {
	// One point per (u,s) group: the coupling is a single atom.
	tbl := dataset.MustTable(1, nil)
	vals := map[dataset.Group]float64{
		{U: 0, S: 0}: 0, {U: 0, S: 1}: 2,
		{U: 1, S: 0}: 4, {U: 1, S: 1}: 8,
	}
	for g, v := range vals {
		tbl.Append(dataset.Record{X: []float64{v}, S: g.S, U: g.U})
	}
	repaired, err := GeometricRepair(tbl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Every point moves to the pairwise midpoint.
	for i := 0; i < tbl.Len(); i++ {
		rec := tbl.At(i)
		want := 1.0
		if rec.U == 1 {
			want = 6.0
		}
		if got := repaired.At(i).X[0]; math.Abs(got-want) > 1e-12 {
			t.Errorf("record %d repaired to %v, want %v", i, got, want)
		}
	}
}

func TestRepairerSequentialReuse(t *testing.T) {
	// One repairer applied to several tables keeps functioning and keeps
	// accumulating diagnostics.
	research, archive := paperData(t, 61, 300, 200)
	plan, _ := Design(research, Options{})
	rp, _ := NewRepairer(plan, rng.New(62), RepairOptions{})
	for round := 0; round < 3; round++ {
		if _, err := rp.RepairTable(archive); err != nil {
			t.Fatal(err)
		}
	}
	want := int64(3 * archive.Len() * archive.Dim())
	if rp.Diagnostics().Repaired != want {
		t.Errorf("diagnostics = %d, want %d", rp.Diagnostics().Repaired, want)
	}
}

func TestOptionsValidateDefaults(t *testing.T) {
	opts := Options{}.withDefaults()
	if opts.NQ != 50 || opts.T != 0.5 || opts.Amount != 1 {
		t.Errorf("defaults = %+v", opts)
	}
	if err := opts.validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
	bad := Options{NQ: 50, T: 0.5, Amount: 1, Solver: SolverKind(99)}
	if err := bad.validate(); err == nil {
		t.Error("bad solver accepted")
	}
	bad = Options{NQ: 50, T: 0.5, Amount: 1, Barycenter: BarycenterKind(99)}
	if err := bad.validate(); err == nil {
		t.Error("bad barycenter accepted")
	}
}

// TestFailedRecordDropsItsDraws: a record that fails after some of its
// features were picked (one feature too many) must leave no queued draw
// behind. The next record then repairs exactly as on a repairer that
// made the same RNG calls value by value, with jitter and dither on so
// every kind of draw is in the stream.
func TestFailedRecordDropsItsDraws(t *testing.T) {
	research, archive := paperData(t, 57, 400, 50)
	plan, err := Design(research, Options{NQ: 40, Solver: SolverSinkhorn})
	if err != nil {
		t.Fatal(err)
	}
	opts := RepairOptions{Jitter: true, KernelDither: true}
	rp, _ := NewRepairer(plan, rng.New(58), opts)
	ref, _ := NewRepairer(plan, rng.New(58), opts)
	good := archive.At(3)
	long := dataset.Record{X: append(append([]float64(nil), good.X...), 0.5), S: good.S, U: good.U}
	if _, err := rp.RepairRecord(long); err == nil {
		t.Fatal("record with an extra feature accepted")
	}
	if len(rp.picks) != 0 {
		t.Fatalf("%d draws left queued after a failed record", len(rp.picks))
	}
	for k := 0; k < plan.Dim; k++ {
		if _, err := ref.RepairValue(long.U, long.S, k, long.X[k]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < archive.Len(); i++ {
		got, err := rp.RepairRecord(archive.At(i))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ref.RepairRecord(archive.At(i))
		for k := range got.X {
			if math.Float64bits(got.X[k]) != math.Float64bits(want.X[k]) {
				t.Fatalf("record %d feature %d: %v, want %v", i, k, got.X[k], want.X[k])
			}
		}
	}
	if rp.Diagnostics() != ref.Diagnostics() {
		t.Fatalf("diagnostics %+v, want %+v", rp.Diagnostics(), ref.Diagnostics())
	}
}
