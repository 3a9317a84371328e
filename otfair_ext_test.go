package otfair_test

// Facade tests for the Section VI extension API: blind repair, joint
// multivariate repair, continuous-u repair, joint metrics, individual-
// fairness diagnostics, monitoring and the stopping rule. Everything here
// goes through the public otfair package only.

import (
	"math"
	"testing"

	"otfair"
)

func TestPublicAPIBlindRepair(t *testing.T) {
	research, archive := buildData(t, 31, 500, 1500)
	plan, err := otfair.Design(research, otfair.DesignOptions{NQ: 50})
	if err != nil {
		t.Fatal(err)
	}
	unlabelled := archive.DropS()
	for _, method := range []otfair.BlindMethod{otfair.BlindHard, otfair.BlindDraw, otfair.BlindMix, otfair.BlindPooled} {
		rp, err := otfair.NewBlindRepairer(plan, research, otfair.NewRNG(1), otfair.BlindOptions{Method: method})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		out, err := rp.RepairTable(unlabelled)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if out.Len() != unlabelled.Len() {
			t.Fatalf("%v: cardinality changed", method)
		}
	}
	// QDA exposed directly.
	qda, err := otfair.NewQDA(research)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := qda.Accuracy(archive)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Errorf("QDA accuracy %v below chance-beating floor", acc)
	}
}

func TestPublicAPIJointRepair(t *testing.T) {
	research, archive := buildData(t, 32, 500, 800)
	plan, err := otfair.DesignJoint(research, otfair.JointOptions{NQ: 12})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := otfair.NewJointRepairer(plan, otfair.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	out, err := rp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	cfg := otfair.MetricConfig{Estimator: otfair.MetricKDE}
	before, err := otfair.E(archive, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := otfair.E(out, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("joint repair did not reduce E (%v → %v)", before, after)
	}
}

func TestPublicAPIJointMetrics(t *testing.T) {
	_, archive := buildData(t, 33, 100, 2000)
	ej, err := otfair.EJoint(archive, otfair.JointMetricConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ej <= 0 {
		t.Errorf("EJoint = %v on the unrepaired paper scenario, want positive", ej)
	}
	gap, err := otfair.CorrelationGap(archive)
	if err != nil {
		t.Fatal(err)
	}
	if gap < 0 || gap > 2 {
		t.Errorf("correlation gap %v outside [0,2]", gap)
	}
	dmg, err := otfair.CorrelationDamage(archive, archive)
	if err != nil {
		t.Fatal(err)
	}
	if dmg != 0 {
		t.Errorf("identity correlation damage = %v", dmg)
	}
}

func TestPublicAPIContinuousU(t *testing.T) {
	r := otfair.NewRNG(34)
	var research, archive []otfair.ContinuousRecord
	draw := func(n int) []otfair.ContinuousRecord {
		recs := make([]otfair.ContinuousRecord, n)
		for i := range recs {
			u := r.Float64()
			s := 0
			shift := 0.0
			if r.Bernoulli(0.5) {
				s = 1
				shift = 2 * (1 - u)
			}
			recs[i] = otfair.ContinuousRecord{
				X: []float64{r.Normal(2*u-1+shift, 1), r.Normal(2*u-1+shift, 1)},
				S: s, U: u,
			}
		}
		return recs
	}
	research = draw(1200)
	archive = draw(2500)
	plan, err := otfair.DesignContinuous(research, 2, otfair.ContinuousOptions{Bins: 4, Blend: true})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := otfair.NewContinuousRepairer(plan, otfair.NewRNG(3), otfair.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := rp.RepairAll(archive)
	if err != nil {
		t.Fatal(err)
	}
	cfg := otfair.MetricConfig{Estimator: otfair.MetricKDE}
	before, err := otfair.EBinned(archive, plan.Edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := otfair.EBinned(repaired, plan.Edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before/2 {
		t.Errorf("continuous-u repair: E %v → %v", before, after)
	}
}

func TestPublicAPIIndividualDiagnostics(t *testing.T) {
	research, archive := buildData(t, 35, 500, 2000)
	qp, err := otfair.DesignQuantile(research, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := qp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	disp, err := otfair.RepairDispersion(archive, out, 40)
	if err != nil {
		t.Fatal(err)
	}
	com, err := otfair.Comonotonicity(archive, out)
	if err != nil {
		t.Fatal(err)
	}
	// The quantile repair is a monotone map: tiny dispersion, near-perfect
	// order preservation.
	if disp > 0.15 {
		t.Errorf("quantile repair dispersion = %v, want ≈ 0", disp)
	}
	if com < 0.95 {
		t.Errorf("quantile repair comonotonicity = %v, want ≈ 1", com)
	}
}

func TestPublicAPITargetFamilies(t *testing.T) {
	research, _ := buildData(t, 36, 400, 0)
	for _, target := range []struct {
		kind otfair.DesignOptions
		name string
	}{
		{otfair.DesignOptions{NQ: 30, Target: otfair.TargetMixture}, "mixture"},
		{otfair.DesignOptions{NQ: 30, Target: otfair.TargetGaussian}, "gaussian"},
	} {
		if _, err := otfair.Design(research, target.kind); err != nil {
			t.Errorf("%s target: %v", target.name, err)
		}
	}
}

func TestPublicAPIMonitorAndStoppingRule(t *testing.T) {
	research, archive := buildData(t, 37, 2000, 4000)
	res, err := otfair.ResearchStoppingRule(research, otfair.StoppingOptions{Batch: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.NStop <= 0 || res.NStop > research.Len() {
		t.Fatalf("NStop = %d outside (0, %d]", res.NStop, research.Len())
	}
	plan, err := otfair.Design(research, otfair.DesignOptions{NQ: 50})
	if err != nil {
		t.Fatal(err)
	}
	m, err := otfair.NewMonitor(plan, otfair.MonitorOptions{Window: 256})
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for _, rec := range archive.Records() {
		alarms, err := m.Observe(rec)
		if err != nil {
			t.Fatal(err)
		}
		fired += len(alarms)
	}
	if m.Seen() != int64(archive.Len()) {
		t.Errorf("Seen = %d, want %d", m.Seen(), archive.Len())
	}
	if fired > 2 {
		t.Errorf("stationary archive raised %d alarms", fired)
	}
}

func TestPublicAPIDriftAlarmShape(t *testing.T) {
	// A deliberately shifted archive must page, and the alarm must carry
	// usable localization fields.
	research, archive := buildData(t, 38, 1500, 6000)
	plan, err := otfair.Design(research, otfair.DesignOptions{NQ: 50})
	if err != nil {
		t.Fatal(err)
	}
	m, err := otfair.NewMonitor(plan, otfair.MonitorOptions{Window: 256})
	if err != nil {
		t.Fatal(err)
	}
	var first *otfair.DriftAlarm
	for _, rec := range archive.Records() {
		shifted := otfair.Record{X: []float64{rec.X[0] + 2, rec.X[1] + 2}, S: rec.S, U: rec.U}
		alarms, err := m.Observe(shifted)
		if err != nil {
			t.Fatal(err)
		}
		if len(alarms) > 0 && first == nil {
			a := alarms[0]
			first = &a
		}
	}
	if first == nil {
		t.Fatal("2σ shift raised no alarm")
	}
	if first.Stat <= first.Threshold {
		t.Errorf("alarm stat %v not above threshold %v", first.Stat, first.Threshold)
	}
	if math.IsNaN(first.Stat) {
		t.Error("NaN alarm statistic")
	}
}

func TestPublicAPIServingLayer(t *testing.T) {
	research, archive := buildData(t, 61, 400, 2500)
	plan, err := otfair.Design(research, otfair.DesignOptions{NQ: 40})
	if err != nil {
		t.Fatal(err)
	}

	// Store round trip: put by content fingerprint, reload, stats.
	store, err := otfair.OpenPlanStore(t.TempDir(), otfair.PlanStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := store.Put(plan)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Get(id)
	if err != nil {
		t.Fatal(err)
	}

	// Shared sampler: NewRepairerShared is byte-identical to NewRepairer.
	sampler, err := otfair.NewPlanSampler(loaded)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := otfair.NewRepairerShared(sampler, otfair.NewRNG(9), otfair.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := otfair.NewRepairer(plan, otfair.NewRNG(9), otfair.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := shared.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plain.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		for k := range a.At(i).X {
			if a.At(i).X[k] != b.At(i).X[k] {
				t.Fatalf("record %d feature %d: shared %v != plain %v", i, k, a.At(i).X[k], b.At(i).X[k])
			}
		}
	}

	// Batch engine: single worker matches, totals accumulate.
	engine, err := otfair.NewBatchRepairer(loaded, otfair.BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, _, _, err := engine.RepairTable(otfair.NewRNG(9), otfair.BlindHard, archive)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Len(); i++ {
		for k := range c.At(i).X {
			if c.At(i).X[k] != b.At(i).X[k] {
				t.Fatalf("record %d feature %d: batch %v != plain %v", i, k, c.At(i).X[k], b.At(i).X[k])
			}
		}
	}
	if engine.Totals().Records != int64(archive.Len()) {
		t.Errorf("totals = %+v", engine.Totals())
	}
	if st := store.Stats(); st.Puts != 1 || st.MemHits != 1 {
		t.Errorf("store stats = %+v", st)
	}
}

func TestPublicAPIMonitorSummary(t *testing.T) {
	research, archive := buildData(t, 62, 300, 600)
	plan, err := otfair.Design(research, otfair.DesignOptions{NQ: 30})
	if err != nil {
		t.Fatal(err)
	}
	m, err := otfair.NewMonitor(plan, otfair.MonitorOptions{Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < archive.Len(); i++ {
		if _, err := m.Observe(archive.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	var snap otfair.MonitorSummary = m.Snapshot()
	if snap.Seen != int64(archive.Len()) {
		t.Errorf("seen = %d, want %d", snap.Seen, archive.Len())
	}
	if snap.WatchedCells == 0 || snap.FullWindows == 0 {
		t.Errorf("snapshot = %+v, want watched and full cells", snap)
	}
}
