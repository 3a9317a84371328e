package blind

import (
	"bytes"
	"strings"
	"testing"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/rng"
)

func fitCalibration(t *testing.T, plan *core.Plan, research *dataset.Table) *Calibration {
	t.Helper()
	cal, err := NewCalibration(plan, research)
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// TestCalibrationRoundTrip pins the artefact contract: canonical bytes are
// stable, the fingerprint is a pure function of content, and a round-tripped
// calibration is behaviourally identical — posterior, confidence baseline
// and pooled plan all byte-equal the fresh fit.
func TestCalibrationRoundTrip(t *testing.T) {
	plan, research, archive := designOnScenario(t, 31, 300, 200)
	cal := fitCalibration(t, plan, research)

	raw, err := cal.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := cal.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatal("canonical serialization is not byte-stable")
	}
	id, err := cal.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if id != core.FingerprintBytes(raw) {
		t.Fatal("fingerprint disagrees with the canonical bytes")
	}

	loaded, err := ReadCalibration(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.PlanID() != cal.PlanID() || loaded.Dim() != cal.Dim() {
		t.Errorf("identity fields changed: %s/%d vs %s/%d", loaded.PlanID(), loaded.Dim(), cal.PlanID(), cal.Dim())
	}
	if loaded.ResearchConfidence() != cal.ResearchConfidence() || loaded.ResearchRecords() != cal.ResearchRecords() {
		t.Error("research baseline changed across the round trip")
	}
	reRaw, err := loaded.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, reRaw) {
		t.Fatal("serialize -> read -> serialize changed the canonical bytes")
	}

	// The QDA posterior survives exactly (float64 round-trips through JSON
	// bit-exactly at default precision).
	qda, err := NewQDA(research)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < archive.Len(); i++ {
		rec := archive.At(i)
		want, err := qda.Posterior(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.qda.Posterior(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("record %d: posterior %v != fresh QDA %v", i, got, want)
		}
	}

	// The reconstructed pooled plan equals the fresh fit's bit for bit.
	want, err := cal.PooledPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.PooledPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, err := want.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	gotRaw, err := got.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantRaw, gotRaw) {
		t.Fatal("calibration-reconstructed pooled plan differs from the fresh fit's")
	}
}

// TestCalibratedRepairerByteIdentical pins NewCalibrated to New: for every
// method, the calibrated shared-sampler repairer reproduces the research-
// fitted repairer byte for byte at the same seed — including after a
// serialization round trip of the calibration.
func TestCalibratedRepairerByteIdentical(t *testing.T) {
	plan, research, archive := designOnScenario(t, 32, 300, 800)
	unlabelled := stripS(t, archive)
	cal := fitCalibration(t, plan, research)
	raw, err := cal.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadCalibration(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	labelled, err := core.NewPlanSampler(plan)
	if err != nil {
		t.Fatal(err)
	}
	pooledPlan, err := loaded.PooledPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := core.NewPlanSampler(pooledPlan)
	if err != nil {
		t.Fatal(err)
	}
	smp := Samplers{Labelled: labelled, Pooled: pooled}

	for _, method := range []Method{MethodHard, MethodDraw, MethodMix, MethodPooled} {
		ref, err := New(plan, research, rng.New(77), Options{Method: method})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.RepairTable(unlabelled)
		if err != nil {
			t.Fatal(err)
		}
		calrp, err := NewCalibrated(loaded, smp, rng.New(77), Options{Method: method})
		if err != nil {
			t.Fatal(err)
		}
		got, err := calrp.RepairTable(unlabelled)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < want.Len(); i++ {
			wr, gr := want.At(i), got.At(i)
			for k := range wr.X {
				if wr.X[k] != gr.X[k] {
					t.Fatalf("method %v record %d feature %d: %v != %v", method, i, k, gr.X[k], wr.X[k])
				}
			}
		}
		if ref.Stats() != calrp.Stats() {
			t.Errorf("method %v: stats diverged: %+v vs %+v", method, calrp.Stats(), ref.Stats())
		}
	}
}

// TestCalibrationValidation exercises the loud-failure contract of
// ReadCalibration on corrupted artefacts.
func TestCalibrationValidation(t *testing.T) {
	plan, research, _ := designOnScenario(t, 33, 250, 10)
	cal := fitCalibration(t, plan, research)
	raw, err := cal.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(string) string{
		"garbage":       func(string) string { return "{not json" },
		"version":       func(s string) string { return strings.Replace(s, `"version":1`, `"version":99`, 1) },
		"dim":           func(s string) string { return strings.Replace(s, `"dim":2`, `"dim":0`, 1) },
		"plan":          func(s string) string { return strings.Replace(s, `"plan":"`+cal.PlanID()+`"`, `"plan":""`, 1) },
		"negative-mass": func(s string) string { return strings.Replace(s, `"pmf":[`, `"pmf":[-1,`, 1) },
	} {
		if _, err := ReadCalibration(strings.NewReader(mutate(string(raw)))); err == nil {
			t.Errorf("%s corruption deserialized without error", name)
		}
	}
}

// TestAmbiguityHistogram checks the Stats histogram: every imputed record
// lands in exactly one bin, and a well-separated scenario concentrates mass
// in the confident bins.
func TestAmbiguityHistogram(t *testing.T) {
	plan, research, archive := designOnScenario(t, 34, 300, 500)
	unlabelled := stripS(t, archive)
	rp, err := New(plan, research, rng.New(9), Options{Method: MethodDraw})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.RepairTable(unlabelled); err != nil {
		t.Fatal(err)
	}
	st := rp.Stats()
	var total int64
	for _, c := range st.AmbiguityBins {
		total += c
	}
	if total != st.Imputed {
		t.Errorf("histogram mass %d != imputed %d", total, st.Imputed)
	}
	if st.AmbiguityBins[0] == 0 {
		t.Error("separated scenario put no records in the confident bin")
	}
	var merged Stats
	merged.Merge(st)
	merged.Merge(st)
	if merged.Imputed != 2*st.Imputed || merged.AmbiguityBins[0] != 2*st.AmbiguityBins[0] {
		t.Error("Stats.Merge does not aggregate")
	}
}
