package joint

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/ot"
	"otfair/internal/rng"
	"otfair/internal/simulate"
	"otfair/internal/stat"
)

// paperTables draws research/archive data from the paper's simulation
// scenario.
func paperTables(t testing.TB, seed uint64, nR, nA int) (*dataset.Table, *dataset.Table) {
	t.Helper()
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	research, archive, err := sampler.ResearchArchive(rng.New(seed), nR, nA)
	if err != nil {
		t.Fatal(err)
	}
	return research, archive
}

// oppositeCorrScenario builds the case the paper's feature stratification
// cannot see: both s-groups share identical per-feature marginals
// (N(0,1) each coordinate) but carry opposite-sign correlation ±rho, so all
// the s-dependence lives in the joint structure.
func oppositeCorrScenario(rho float64) simulate.Scenario {
	pos := [][]float64{{1, rho}, {rho, 1}}
	neg := [][]float64{{1, -rho}, {-rho, 1}}
	zero := []float64{0, 0}
	return simulate.Scenario{
		Dim: 2,
		Mean: map[dataset.Group][]float64{
			{U: 0, S: 0}: zero, {U: 0, S: 1}: zero,
			{U: 1, S: 0}: zero, {U: 1, S: 1}: zero,
		},
		Cov: map[dataset.Group][][]float64{
			{U: 0, S: 0}: pos, {U: 0, S: 1}: neg,
			{U: 1, S: 0}: pos, {U: 1, S: 1}: neg,
		},
		PrU0:       0.5,
		PrS0GivenU: [2]float64{0.5, 0.5},
	}
}

// groupCorrelation returns the Pearson correlation between features 0 and 1
// within one (u,s) group.
func groupCorrelation(t *dataset.Table, g dataset.Group) float64 {
	return stat.Correlation(t.GroupColumn(g, 0), t.GroupColumn(g, 1))
}

// corrGap is the mean over u of |ρ_{u,0} − ρ_{u,1}| — the joint dependence
// signal a per-feature metric cannot see.
func corrGap(t *dataset.Table) float64 {
	gap := 0.0
	for u := 0; u < 2; u++ {
		r0 := groupCorrelation(t, dataset.Group{U: u, S: 0})
		r1 := groupCorrelation(t, dataset.Group{U: u, S: 1})
		gap += math.Abs(r0 - r1)
	}
	return gap / 2
}

func TestDesignValidation(t *testing.T) {
	if _, err := Design(nil, Options{}); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := Design(dataset.MustTable(2, nil), Options{}); err == nil {
		t.Error("empty table accepted")
	}
	research, _ := paperTables(t, 1, 300, 0)
	if _, err := Design(research, Options{NQ: 1}); err == nil {
		t.Error("NQ=1 accepted")
	}
	if _, err := Design(research, Options{T: 2}); err == nil {
		t.Error("T=2 accepted")
	}
	if _, err := Design(research, Options{Epsilon: -1}); err == nil {
		t.Error("negative epsilon accepted")
	}
	if _, err := Design(research, Options{NQ: 100, MaxStates: 1000}); err == nil {
		t.Error("over-budget product support accepted")
	}
	// Missing group.
	partial := dataset.MustTable(2, nil)
	for i := 0; i < 50; i++ {
		_ = partial.Append(dataset.Record{X: []float64{float64(i), 1}, S: 0, U: 0})
	}
	if _, err := Design(partial, Options{}); err == nil {
		t.Error("missing research groups accepted")
	}
}

func TestDesignPlanStructure(t *testing.T) {
	research, _ := paperTables(t, 2, 500, 0)
	plan, err := Design(research, Options{NQ: 12})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Dim != 2 {
		t.Fatalf("dim = %d", plan.Dim)
	}
	for u := 0; u < 2; u++ {
		cell := plan.Cells[u]
		if got := cell.States(); got != 144 {
			t.Fatalf("u=%d: %d states, want 144", u, got)
		}
		if len(cell.Points) != len(cell.Bary) {
			t.Fatalf("u=%d: support/target size mismatch", u)
		}
		// Flat index must be row-major over the grids.
		for i0 := range cell.Grids[0] {
			for i1 := range cell.Grids[1] {
				flat := flatIndex(cell.Grids, []int{i0, i1})
				p := cell.Points[flat]
				if p[0] != cell.Grids[0][i0] || p[1] != cell.Grids[1][i1] {
					t.Fatalf("u=%d: flat %d decodes to %v, want (%v,%v)",
						u, flat, p, cell.Grids[0][i0], cell.Grids[1][i1])
				}
			}
		}
		for s := 0; s < 2; s++ {
			if err := checkMarginals(cell.Plans[s], cell.PMF[s], cell.Bary, 1e-6); err != nil {
				t.Errorf("u=%d s=%d: %v", u, s, err)
			}
		}
		// Barycenter is a pmf.
		sum := 0.0
		for _, v := range cell.Bary {
			if v < 0 {
				t.Fatalf("u=%d: negative barycenter mass", u)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("u=%d: barycenter mass %v", u, sum)
		}
	}
}

func TestBarycenterBetweenMarginals(t *testing.T) {
	// The t=½ barycenter's mean must sit midway between the two component
	// means (exact for W2 barycenters of any measures).
	research, _ := paperTables(t, 3, 800, 0)
	plan, err := Design(research, Options{NQ: 16})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2; u++ {
		cell := plan.Cells[u]
		meanOf := func(pmf []float64) [2]float64 {
			var m [2]float64
			for i, p := range pmf {
				m[0] += p * cell.Points[i][0]
				m[1] += p * cell.Points[i][1]
			}
			return m
		}
		m0, m1, mb := meanOf(cell.PMF[0]), meanOf(cell.PMF[1]), meanOf(cell.Bary)
		for k := 0; k < 2; k++ {
			want := (m0[k] + m1[k]) / 2
			if math.Abs(mb[k]-want) > 0.12 {
				t.Errorf("u=%d k=%d: barycenter mean %v, want ≈ %v", u, k, mb[k], want)
			}
		}
	}
}

func TestRepairerValidation(t *testing.T) {
	research, _ := paperTables(t, 4, 300, 0)
	plan, err := Design(research, Options{NQ: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRepairer(nil, rng.New(1)); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := NewRepairer(plan, nil); err == nil {
		t.Error("nil rng accepted")
	}
	rp, err := NewRepairer(plan, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.RepairRecord(dataset.Record{X: []float64{0, 0}, S: dataset.SUnknown, U: 0}); err == nil {
		t.Error("unlabelled record accepted")
	}
	if _, err := rp.RepairRecord(dataset.Record{X: []float64{0, 0}, S: 0, U: 3}); err == nil {
		t.Error("bad u accepted")
	}
	if _, err := rp.RepairRecord(dataset.Record{X: []float64{0}, S: 0, U: 0}); err == nil {
		t.Error("wrong dimension accepted")
	}
	if _, err := rp.RepairRecord(dataset.Record{X: []float64{0, math.NaN()}, S: 0, U: 0}); err == nil {
		t.Error("NaN feature accepted")
	}
	if _, err := rp.RepairTable(nil); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := rp.RepairTable(dataset.MustTable(3, nil)); err == nil {
		t.Error("wrong-dimension table accepted")
	}
}

func TestRepairShapeProperties(t *testing.T) {
	research, archive := paperTables(t, 5, 500, 800)
	plan, err := Design(research, Options{NQ: 14})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewRepairer(plan, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	out, err := rp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != archive.Len() {
		t.Fatalf("cardinality %d, want %d", out.Len(), archive.Len())
	}
	for i, rec := range out.Records() {
		in := archive.At(i)
		if rec.S != in.S || rec.U != in.U {
			t.Fatalf("record %d: labels changed", i)
		}
		// Repaired vectors are product-support points.
		cell := plan.Cells[rec.U]
		found := false
		for _, p := range cell.Points {
			if p[0] == rec.X[0] && p[1] == rec.X[1] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("record %d: %v not on the product support", i, rec.X)
		}
	}
	if d := rp.Diagnostics(); d.Repaired != int64(archive.Len()) {
		t.Errorf("diagnostics.Repaired = %d, want %d", d.Repaired, archive.Len())
	}
}

func TestRepairClampsOutOfRange(t *testing.T) {
	research, _ := paperTables(t, 7, 400, 0)
	plan, err := Design(research, Options{NQ: 10})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewRepairer(plan, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.RepairRecord(dataset.Record{X: []float64{1e6, -1e6}, S: 0, U: 0}); err != nil {
		t.Fatal(err)
	}
	if d := rp.Diagnostics(); d.Clamped != 2 {
		t.Errorf("Clamped = %d, want 2", d.Clamped)
	}
}

func TestDegenerateDimension(t *testing.T) {
	// A constant feature collapses that axis to one state; the repair must
	// still work and return the constant on that axis.
	r := rng.New(9)
	research := dataset.MustTable(2, nil)
	for _, g := range dataset.Groups() {
		for i := 0; i < 60; i++ {
			shift := float64(g.S)
			_ = research.Append(dataset.Record{
				X: []float64{r.Normal(shift, 1), 7},
				S: g.S, U: g.U,
			})
		}
	}
	plan, err := Design(research, Options{NQ: 10})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2; u++ {
		if got := plan.Cells[u].States(); got != 10 {
			t.Fatalf("u=%d: %d states, want 10 (10×1)", u, got)
		}
	}
	rp, err := NewRepairer(plan, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	out, err := rp.RepairRecord(dataset.Record{X: []float64{0.3, 7}, S: 0, U: 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.X[1] != 7 {
		t.Errorf("degenerate axis produced %v, want 7", out.X[1])
	}
}

func TestJointRepairQuenchesCorrelationGapWherePerFeatureCannot(t *testing.T) {
	// The decisive case for the Section VI trade-off: identical per-feature
	// marginals, opposite joint correlation. The per-feature repair is blind
	// to the unfairness; the joint repair removes it.
	sampler, err := simulate.NewSampler(oppositeCorrScenario(0.8))
	if err != nil {
		t.Fatal(err)
	}
	research, archive, err := sampler.ResearchArchive(rng.New(11), 1200, 4000)
	if err != nil {
		t.Fatal(err)
	}

	gapBefore := corrGap(archive)
	if gapBefore < 1.2 {
		t.Fatalf("scenario broken: correlation gap %v, want ≈ 1.6", gapBefore)
	}

	// Per-feature (paper) repair.
	marginalPlan, err := core.Design(research, core.Options{NQ: 30})
	if err != nil {
		t.Fatal(err)
	}
	mrp, err := core.NewRepairer(marginalPlan, rng.New(12), core.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	marginalOut, err := mrp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}

	// Joint repair.
	jointPlan, err := Design(research, Options{NQ: 16})
	if err != nil {
		t.Fatal(err)
	}
	jrp, err := NewRepairer(jointPlan, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	jointOut, err := jrp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}

	gapJoint := corrGap(jointOut)
	gapMarginal := corrGap(marginalOut)
	if gapJoint > gapBefore/3 {
		t.Errorf("joint repair left correlation gap %v of %v", gapJoint, gapBefore)
	}
	if gapMarginal < gapBefore/3 {
		t.Errorf("per-feature repair 'fixed' the joint gap (%v of %v) — it should be unable to",
			gapMarginal, gapBefore)
	}
	if gapJoint >= gapMarginal {
		t.Errorf("joint gap %v not below per-feature gap %v", gapJoint, gapMarginal)
	}
}

func TestJointRepairShrinksGroupMeansGap(t *testing.T) {
	// On the paper's mean-shifted scenario the joint repair must pull the
	// two s-conditional mean vectors together within each u.
	research, archive := paperTables(t, 14, 800, 3000)
	plan, err := Design(research, Options{NQ: 16})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewRepairer(plan, rng.New(15))
	if err != nil {
		t.Fatal(err)
	}
	out, err := rp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2; u++ {
		for k := 0; k < 2; k++ {
			g0, g1 := dataset.Group{U: u, S: 0}, dataset.Group{U: u, S: 1}
			before := math.Abs(stat.Mean(archive.GroupColumn(g0, k)) - stat.Mean(archive.GroupColumn(g1, k)))
			after := math.Abs(stat.Mean(out.GroupColumn(g0, k)) - stat.Mean(out.GroupColumn(g1, k)))
			if u == 0 && before < 0.5 {
				t.Fatalf("scenario broken: u=0 gap %v", before)
			}
			if after > before/2 && before > 0.3 {
				t.Errorf("(u=%d,k=%d): mean gap %v → %v, want at least halved", u, k, before, after)
			}
		}
	}
}

func TestJointRepairDeterministicForSeed(t *testing.T) {
	research, archive := paperTables(t, 16, 400, 200)
	plan, err := Design(research, Options{NQ: 12})
	if err != nil {
		t.Fatal(err)
	}
	run := func() *dataset.Table {
		rp, err := NewRepairer(plan, rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		out, err := rp.RepairTable(archive)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for i := 0; i < a.Len(); i++ {
		if a.At(i).X[0] != b.At(i).X[0] || a.At(i).X[1] != b.At(i).X[1] {
			t.Fatalf("record %d differs across identical seeds", i)
		}
	}
}

func TestJointSerializationRoundTrip(t *testing.T) {
	research, archive := paperTables(t, 18, 400, 150)
	plan, err := Design(research, Options{NQ: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != plan.Dim || got.Opts.NQ != plan.Opts.NQ {
		t.Fatalf("round-trip lost configuration: %+v", got.Opts)
	}
	// The reloaded plan must repair identically for the same seed.
	a, err := NewRepairer(plan, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRepairer(got, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	outA, err := a.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	outB, err := b.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < outA.Len(); i++ {
		if outA.At(i).X[0] != outB.At(i).X[0] || outA.At(i).X[1] != outB.At(i).X[1] {
			t.Fatalf("record %d differs after round-trip", i)
		}
	}
}

func TestJointReadPlanRejectsCorruption(t *testing.T) {
	research, _ := paperTables(t, 19, 300, 0)
	plan, err := Design(research, Options{NQ: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	if !strings.Contains(good, `"version":2`) {
		t.Fatalf("serialized plan does not carry version 2: %.80s", good)
	}
	cases := map[string]string{
		"garbage":     "{not json",
		"bad version": strings.Replace(good, `"version":2`, `"version":99`, 1),
		"bad dim":     strings.Replace(good, `"dim":2`, `"dim":0`, 1),
	}
	for name, body := range cases {
		if _, err := ReadPlan(strings.NewReader(body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestJointThreeDimensional(t *testing.T) {
	// d = 3: 8³ = 512 product states. Verifies the design and repair are
	// not hard-wired to d = 2 and that the MaxStates guard sizes correctly.
	r := rng.New(21)
	research := dataset.MustTable(3, nil)
	archive := dataset.MustTable(3, nil)
	draw := func(tab *dataset.Table, n int) {
		for i := 0; i < n; i++ {
			u := i % 2
			s := (i / 2) % 2
			shift := float64(s)
			rec := dataset.Record{
				X: []float64{r.Normal(shift, 1), r.Normal(shift, 1), r.Normal(-shift, 1)},
				S: s, U: u,
			}
			if err := tab.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	draw(research, 600)
	draw(archive, 1000)
	plan, err := Design(research, Options{NQ: 8})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2; u++ {
		if got := plan.Cells[u].States(); got != 512 {
			t.Fatalf("u=%d: %d states, want 512", u, got)
		}
	}
	rp, err := NewRepairer(plan, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	out, err := rp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	// Mean gap between the s-groups must shrink on every coordinate.
	for k := 0; k < 3; k++ {
		g0, g1 := dataset.Group{U: 0, S: 0}, dataset.Group{U: 0, S: 1}
		before := math.Abs(stat.Mean(archive.GroupColumn(g0, k)) - stat.Mean(archive.GroupColumn(g1, k)))
		after := math.Abs(stat.Mean(out.GroupColumn(g0, k)) - stat.Mean(out.GroupColumn(g1, k)))
		if after >= before {
			t.Errorf("k=%d: mean gap %v → %v", k, before, after)
		}
	}
}

// TestDesignRejectsNonConvergedSinkhorn pins the joint design's numerical
// contract: at an ε far below the scale-aware default the separable
// Sinkhorn plans exhaust their iterations, and the design must fail with
// the typed *core.ConvergenceError instead of shipping the unconverged
// plans.
func TestDesignRejectsNonConvergedSinkhorn(t *testing.T) {
	research, _ := paperTables(t, 99, 500, 0)
	plan, err := Design(research, Options{NQ: 8, Epsilon: 1e-3})
	var ce *core.ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("design returned (%v, %v), want a *core.ConvergenceError", plan, err)
	}
	if ce.MarginalErr < ce.Tol || ce.Iterations == 0 {
		t.Errorf("convergence error %+v does not describe a non-converged solve", ce)
	}
}

// checkMarginals reports the first marginal of p that is off source or
// target by more than tol (L∞). It reads the plan through the rows a
// repairer samples: row masses, and each row's conditional scaled back up.
func checkMarginals(p ot.RowPlan, source, target []float64, tol float64) error {
	n, m := p.Dims()
	rows, cols := make([]float64, n), make([]float64, m)
	for i := range rows {
		rows[i] = p.RowMass(i)
		targets, probs, _ := p.AppendRowConditional(nil, nil, i)
		for k, j := range targets {
			cols[j] += rows[i] * probs[k]
		}
	}
	for side, pair := range [2][2][]float64{{rows, source}, {cols, target}} {
		got, want := pair[0], pair[1]
		if len(got) != len(want) {
			return fmt.Errorf("marginal %d: length %d, want %d", side, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > tol {
				return fmt.Errorf("marginal %d state %d is %v, want %v", side, i, got[i], want[i])
			}
		}
	}
	return nil
}
