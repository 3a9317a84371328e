package blind

import (
	"math"
	"strings"
	"testing"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/fairmetrics"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// designOnScenario draws research/archive tables from the paper's simulation
// scenario and designs the labelled plan.
func designOnScenario(t *testing.T, seed uint64, nR, nA int) (*core.Plan, *dataset.Table, *dataset.Table) {
	t.Helper()
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	research, archive, err := sampler.ResearchArchive(r, nR, nA)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Design(research, core.Options{NQ: 50})
	if err != nil {
		t.Fatal(err)
	}
	return plan, research, archive
}

// stripS returns a copy of the table with all s labels removed.
func stripS(t *testing.T, in *dataset.Table) *dataset.Table {
	t.Helper()
	out := in.DropS()
	for _, rec := range out.Records() {
		if rec.S != dataset.SUnknown {
			t.Fatal("DropS left a label behind")
		}
	}
	return out
}

// reattachS copies the true labels from src onto dst record by record so E —
// which conditions on the true s — can be evaluated on blind-repaired data.
func reattachS(t *testing.T, dst, src *dataset.Table) *dataset.Table {
	t.Helper()
	if dst.Len() != src.Len() {
		t.Fatalf("length mismatch %d vs %d", dst.Len(), src.Len())
	}
	out := dst.Clone()
	for i := range out.Records() {
		out.Records()[i].S = src.At(i).S
	}
	return out
}

func TestParseMethodRoundTrip(t *testing.T) {
	for _, m := range []Method{MethodHard, MethodDraw, MethodMix, MethodPooled} {
		got, err := ParseMethod(m.String())
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got != m {
			t.Errorf("ParseMethod(%q) = %v, want %v", m.String(), got, m)
		}
	}
	if _, err := ParseMethod("nonsense"); err == nil {
		t.Error("want error for unknown method")
	}
	if m, err := ParseMethod(""); err != nil || m != MethodHard {
		t.Errorf("empty name: got (%v, %v), want (hard, nil)", m, err)
	}
	if Method(99).String() == "" {
		t.Error("unknown method must still render")
	}
}

func TestNewErrors(t *testing.T) {
	plan, research, _ := designOnScenario(t, 1, 400, 100)
	r := rng.New(2)
	if _, err := New(nil, research, r, Options{}); err == nil {
		t.Error("nil plan: want error")
	}
	if _, err := New(plan, research, nil, Options{}); err == nil {
		t.Error("nil rng: want error")
	}
	if _, err := New(plan, nil, r, Options{Method: MethodPooled}); err == nil {
		t.Error("pooled without research: want error")
	}
	if _, err := New(plan, nil, r, Options{Method: MethodHard}); err == nil {
		t.Error("hard without research: want error")
	}
	if _, err := New(plan, research, r, Options{Method: Method(42)}); err == nil {
		t.Error("unknown method: want error")
	}
	// A research table of the wrong dimension fails at construction for
	// every method, not at the first unlabelled record.
	wrongDim := dataset.MustTable(3, nil)
	_ = wrongDim.Append(dataset.Record{X: []float64{1, 2, 3}, S: 0, U: 0})
	for _, m := range []Method{MethodHard, MethodDraw, MethodMix, MethodPooled} {
		_, err := New(plan, wrongDim, r, Options{Method: m})
		if err == nil || !strings.Contains(err.Error(), "research dimension 3 does not match plan 2") {
			t.Errorf("%v with a 3-feature research table: got %v", m, err)
		}
	}
}

func TestRepairRecordValidation(t *testing.T) {
	plan, research, _ := designOnScenario(t, 3, 400, 100)
	rp, err := New(plan, research, rng.New(4), Options{Method: MethodHard})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.RepairRecord(dataset.Record{X: []float64{0, 0}, U: 5}); err == nil {
		t.Error("bad u: want error")
	}
	if _, err := rp.RepairRecord(dataset.Record{X: []float64{0}, U: 0}); err == nil {
		t.Error("wrong dimension: want error")
	}
}

// TestBadPosteriorSurfaces feeds posteriors outside [0,1] to the block
// repair: each must fail its record before any draw is made or any
// imputation counted.
func TestBadPosteriorSurfaces(t *testing.T) {
	plan, research, _ := designOnScenario(t, 5, 400, 100)
	rp, err := New(plan, research, rng.New(6), Options{Method: MethodDraw})
	if err != nil {
		t.Fatal(err)
	}
	recs := []dataset.Record{{X: []float64{0, 0}, U: 0, S: dataset.SUnknown}}
	out := make([]dataset.Record, 1)
	for _, gamma := range []float64{1.5, -0.25, math.NaN()} {
		n, err := rp.repairBatch(0, recs, []float64{gamma}, out)
		if err == nil || !strings.Contains(err.Error(), "outside [0,1]") {
			t.Errorf("posterior %v: got %v, want an out-of-range error", gamma, err)
		}
		if n != 0 {
			t.Errorf("posterior %v: completed %d records, want 0", gamma, n)
		}
	}
	if st := rp.Stats(); st.Imputed != 0 || st.ConfidenceSum != 0 {
		t.Errorf("rejected posteriors were counted: %+v", st)
	}
}

func TestBlindRepairPreservesShape(t *testing.T) {
	plan, research, archive := designOnScenario(t, 7, 500, 600)
	unlabelled := stripS(t, archive)
	for _, method := range []Method{MethodHard, MethodDraw, MethodMix, MethodPooled} {
		rp, err := New(plan, research, rng.New(8), Options{Method: method})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		out, err := rp.RepairTable(unlabelled)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if out.Len() != unlabelled.Len() {
			t.Errorf("%v: cardinality %d, want %d", method, out.Len(), unlabelled.Len())
		}
		for i, rec := range out.Records() {
			in := unlabelled.At(i)
			if rec.U != in.U {
				t.Fatalf("%v: record %d u changed", method, i)
			}
			if rec.S != dataset.SUnknown {
				t.Fatalf("%v: record %d fabricated an s label", method, i)
			}
			if len(rec.X) != 2 {
				t.Fatalf("%v: record %d dimension %d", method, i, len(rec.X))
			}
		}
		if st := rp.Stats(); st.Records != int64(unlabelled.Len()) {
			t.Errorf("%v: stats.Records = %d, want %d", method, st.Records, unlabelled.Len())
		}
	}
}

func TestBlindRepairedValuesLiveOnSupport(t *testing.T) {
	plan, research, archive := designOnScenario(t, 9, 500, 400)
	unlabelled := stripS(t, archive)
	rp, err := New(plan, research, rng.New(10), Options{Method: MethodPooled})
	if err != nil {
		t.Fatal(err)
	}
	out, err := rp.RepairTable(unlabelled)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range out.Records() {
		for k, v := range rec.X {
			cell := plan.Cell(rec.U, k)
			found := false
			for _, q := range cell.Q {
				if v == q {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("record %d feature %d: value %v not on support", i, k, v)
			}
		}
	}
}

// separatedScenario is the paper's scenario with the s-groups pulled 4σ
// apart, so the QDA posterior is near-0/1 and label imputation is almost
// exact — the regime where blind repair should approach labelled repair.
func separatedScenario() simulate.Scenario {
	return simulate.Scenario{
		Dim: 2,
		Mean: map[dataset.Group][]float64{
			{U: 0, S: 0}: {-4, -4},
			{U: 0, S: 1}: {0, 0},
			{U: 1, S: 0}: {4, 4},
			{U: 1, S: 1}: {0, 0},
		},
		PrU0:       0.5,
		PrS0GivenU: [2]float64{0.3, 0.1},
	}
}

func designOnSeparated(t *testing.T, seed uint64, nR, nA int) (*core.Plan, *dataset.Table, *dataset.Table) {
	t.Helper()
	sampler, err := simulate.NewSampler(separatedScenario())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	research, archive, err := sampler.ResearchArchive(r, nR, nA)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Design(research, core.Options{NQ: 50})
	if err != nil {
		t.Fatal(err)
	}
	return plan, research, archive
}

func TestPosteriorMethodsQuenchEWhenSeparated(t *testing.T) {
	plan, research, archive := designOnSeparated(t, 11, 800, 2000)
	unlabelled := stripS(t, archive)
	cfg := fairmetrics.Config{Estimator: fairmetrics.EstimatorKDE}

	before, err := fairmetrics.E(archive, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []Method{MethodHard, MethodDraw, MethodMix} {
		rp, err := New(plan, research, rng.New(12), Options{Method: method})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		out, err := rp.RepairTable(unlabelled)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		after, err := fairmetrics.E(reattachS(t, out, archive), cfg)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if after >= before/2 {
			t.Errorf("%v: E %v → %v, want at least a 2× reduction", method, before, after)
		}
		if st := rp.Stats(); st.Imputed == 0 {
			t.Errorf("%v: no imputations recorded on an unlabelled archive", method)
		}
	}
}

func TestPosteriorMethodsReduceEOnOverlappingScenario(t *testing.T) {
	// On the paper's own scenario the s-groups are only ~1σ apart, so the
	// posterior is soft and blind repair is necessarily partial: E must
	// still fall, but nowhere near the labelled repair's reduction. This is
	// the quantitative price of missing labels that Section VI anticipates.
	plan, research, archive := designOnScenario(t, 11, 500, 2000)
	unlabelled := stripS(t, archive)
	cfg := fairmetrics.Config{Estimator: fairmetrics.EstimatorKDE}

	before, err := fairmetrics.E(archive, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []Method{MethodHard, MethodDraw, MethodMix} {
		rp, err := New(plan, research, rng.New(12), Options{Method: method})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		out, err := rp.RepairTable(unlabelled)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		after, err := fairmetrics.E(reattachS(t, out, archive), cfg)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if after >= before*0.8 {
			t.Errorf("%v: E %v → %v, want at least a 20%% reduction", method, before, after)
		}
	}
}

func TestPooledAchievesMarginalParity(t *testing.T) {
	// The group-blind pooled transport cannot promise conditional
	// independence (a common map preserves the s-ordering); its contract is
	// marginal parity: the repaired pooled u-marginal must sit close to the
	// barycentric target. Verify via mean/variance of the repaired pooled
	// column against the target pmf's moments.
	plan, research, archive := designOnSeparated(t, 25, 800, 4000)
	unlabelled := stripS(t, archive)
	rp, err := New(plan, research, rng.New(26), Options{Method: MethodPooled})
	if err != nil {
		t.Fatal(err)
	}
	out, err := rp.RepairTable(unlabelled)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2; u++ {
		for k := 0; k < 2; k++ {
			cell := plan.Cell(u, k)
			var wantMean, wantM2 float64
			for i, p := range cell.Bary {
				wantMean += p * cell.Q[i]
				wantM2 += p * cell.Q[i] * cell.Q[i]
			}
			wantStd := math.Sqrt(wantM2 - wantMean*wantMean)

			col := out.UColumn(u, k)
			gotMean := mean(col)
			var gotM2 float64
			for _, v := range col {
				gotM2 += (v - gotMean) * (v - gotMean)
			}
			gotStd := math.Sqrt(gotM2 / float64(len(col)))

			if math.Abs(gotMean-wantMean) > 0.25 {
				t.Errorf("(u=%d,k=%d): repaired pooled mean %v, target %v", u, k, gotMean, wantMean)
			}
			if math.Abs(gotStd-wantStd) > 0.35 {
				t.Errorf("(u=%d,k=%d): repaired pooled std %v, target %v", u, k, gotStd, wantStd)
			}
		}
	}
}

func TestHardMethodTrustsObservedLabels(t *testing.T) {
	plan, research, archive := designOnScenario(t, 13, 500, 300)
	rp, err := New(plan, research, rng.New(14), Options{Method: MethodHard})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.RepairTable(archive); err != nil {
		t.Fatal(err)
	}
	st := rp.Stats()
	if st.Imputed != 0 {
		t.Errorf("labelled archive: %d imputations, want 0", st.Imputed)
	}
	if st.LabelsUsed != int64(archive.Len()) {
		t.Errorf("LabelsUsed = %d, want %d", st.LabelsUsed, archive.Len())
	}
}

func TestHardMatchesLabelledRepairWhenPosteriorIsSharp(t *testing.T) {
	// With well-separated groups the QDA posterior is near-0/1, so MethodHard
	// on unlabelled data must agree with the labelled repair in distribution:
	// compare per-group means of the two repaired archives.
	plan, research, archive := designOnScenario(t, 15, 800, 3000)
	unlabelled := stripS(t, archive)

	inner, err := core.NewRepairer(plan, rng.New(16), core.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	labelledOut, err := inner.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := New(plan, research, rng.New(16), Options{Method: MethodHard})
	if err != nil {
		t.Fatal(err)
	}
	blindOut, err := rp.RepairTable(unlabelled)
	if err != nil {
		t.Fatal(err)
	}
	blindOut = reattachS(t, blindOut, archive)
	for u := 0; u < 2; u++ {
		for k := 0; k < 2; k++ {
			a := mean(labelledOut.UColumn(u, k))
			b := mean(blindOut.UColumn(u, k))
			if math.Abs(a-b) > 0.15 {
				t.Errorf("(u=%d,k=%d): labelled mean %v vs blind-hard mean %v", u, k, a, b)
			}
		}
	}
}

func TestPooledCollapsesGroupGap(t *testing.T) {
	// The pooled transport sends the pooled u-marginal to the barycenter; the
	// repaired s-conditional means must be closer together than before.
	plan, research, archive := designOnScenario(t, 17, 500, 4000)
	unlabelled := stripS(t, archive)
	rp, err := New(plan, research, rng.New(18), Options{Method: MethodPooled})
	if err != nil {
		t.Fatal(err)
	}
	out, err := rp.RepairTable(unlabelled)
	if err != nil {
		t.Fatal(err)
	}
	out = reattachS(t, out, archive)
	for k := 0; k < 2; k++ {
		// u=0 is the group with a genuine s-gap in the paper's scenario.
		g0 := dataset.Group{U: 0, S: 0}
		g1 := dataset.Group{U: 0, S: 1}
		gapBefore := math.Abs(mean(archive.GroupColumn(g0, k)) - mean(archive.GroupColumn(g1, k)))
		gapAfter := math.Abs(mean(out.GroupColumn(g0, k)) - mean(out.GroupColumn(g1, k)))
		if gapAfter >= gapBefore {
			t.Errorf("k=%d: pooled repair did not shrink the s-gap (%v → %v)", k, gapBefore, gapAfter)
		}
	}
}

func TestPosteriorMethodsBeatPooled(t *testing.T) {
	// Posterior-informed repair uses strictly more information than pooled
	// transport; on the well-separated simulation it must quench E harder.
	plan, research, archive := designOnScenario(t, 19, 800, 4000)
	unlabelled := stripS(t, archive)
	cfg := fairmetrics.Config{Estimator: fairmetrics.EstimatorKDE}

	es := map[Method]float64{}
	for _, method := range []Method{MethodDraw, MethodPooled} {
		rp, err := New(plan, research, rng.New(20), Options{Method: method})
		if err != nil {
			t.Fatal(err)
		}
		out, err := rp.RepairTable(unlabelled)
		if err != nil {
			t.Fatal(err)
		}
		e, err := fairmetrics.E(reattachS(t, out, archive), cfg)
		if err != nil {
			t.Fatal(err)
		}
		es[method] = e
	}
	if es[MethodDraw] >= es[MethodPooled] {
		t.Errorf("draw E = %v not below pooled E = %v on separated groups", es[MethodDraw], es[MethodPooled])
	}
}

func TestRepairStreamMatchesTable(t *testing.T) {
	plan, research, archive := designOnScenario(t, 21, 500, 300)
	unlabelled := stripS(t, archive)

	rp1, err := New(plan, research, rng.New(22), Options{Method: MethodMix})
	if err != nil {
		t.Fatal(err)
	}
	viaTable, err := rp1.RepairTable(unlabelled)
	if err != nil {
		t.Fatal(err)
	}

	rp2, err := New(plan, research, rng.New(22), Options{Method: MethodMix})
	if err != nil {
		t.Fatal(err)
	}
	var got []dataset.Record
	n, err := rp2.RepairStream(dataset.NewSliceStream(unlabelled), func(rec dataset.Record) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != unlabelled.Len() {
		t.Fatalf("stream repaired %d records, want %d", n, unlabelled.Len())
	}
	// Identical seed ⇒ identical draws ⇒ identical outputs.
	for i, rec := range got {
		want := viaTable.At(i)
		for k := range rec.X {
			if rec.X[k] != want.X[k] {
				t.Fatalf("record %d feature %d: stream %v vs table %v", i, k, rec.X[k], want.X[k])
			}
		}
	}
}

func TestStatsMeanConfidence(t *testing.T) {
	var s Stats
	if s.MeanConfidence() != 0 {
		t.Error("empty stats must report zero confidence")
	}
	s.Imputed = 2
	s.ConfidenceSum = 1.8
	if math.Abs(s.MeanConfidence()-0.9) > 1e-12 {
		t.Errorf("MeanConfidence = %v, want 0.9", s.MeanConfidence())
	}
}

// TestPooledPlanErrors pins the research-table contract of the pooled
// method: it rejects a missing or mis-sized table, and since the pooled
// marginals read no s label, an s-unlabelled research table repairs
// exactly like the labelled one.
func TestPooledPlanErrors(t *testing.T) {
	plan, research, archive := designOnScenario(t, 23, 400, 100)
	if _, err := New(nil, research, rng.New(1), Options{Method: MethodPooled}); err == nil {
		t.Error("nil plan: want error")
	}
	if _, err := New(plan, nil, rng.New(1), Options{Method: MethodPooled}); err == nil {
		t.Error("nil research: want error")
	}
	wrongDim := dataset.MustTable(3, nil)
	_ = wrongDim.Append(dataset.Record{X: []float64{1, 2, 3}, S: 0, U: 0})
	if _, err := New(plan, wrongDim, rng.New(1), Options{Method: MethodPooled}); err == nil {
		t.Error("dimension mismatch: want error")
	}
	labelled, err := New(plan, research, rng.New(24), Options{Method: MethodPooled})
	if err != nil {
		t.Fatal(err)
	}
	unlabelled, err := New(plan, stripS(t, research), rng.New(24), Options{Method: MethodPooled})
	if err != nil {
		t.Fatalf("pooled with an s-unlabelled research table: %v", err)
	}
	want, err := labelled.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unlabelled.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < got.Len(); i++ {
		if !sameRecord(got.At(i), want.At(i)) {
			t.Fatalf("record %d differs: %+v vs %+v", i, got.At(i), want.At(i))
		}
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
