package otfair_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"otfair"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// buildData draws the paper's simulation scenario through the public API's
// underlying generator.
func buildData(t *testing.T, seed uint64, nR, nA int) (research, archive *otfair.Table) {
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

func TestPublicAPIEndToEnd(t *testing.T) {
	research, archive := buildData(t, 1, 500, 3000)

	plan, err := otfair.Design(research, otfair.DesignOptions{NQ: 50})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := otfair.NewRepairer(plan, otfair.NewRNG(2), otfair.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := rep.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	cfg := otfair.MetricConfig{Estimator: otfair.MetricPlugin}
	before, err := otfair.E(archive, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := otfair.E(repaired, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if after > before/3 {
		t.Errorf("public API repair: E %v -> %v", before, after)
	}
	dmg, err := otfair.Damage(archive, repaired)
	if err != nil {
		t.Fatal(err)
	}
	if !(dmg > 0) {
		t.Errorf("damage = %v", dmg)
	}
}

func TestPublicAPIPlanRoundTrip(t *testing.T) {
	research, _ := buildData(t, 3, 400, 0)
	plan, err := otfair.Design(research, otfair.DesignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := otfair.ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dim != plan.Dim {
		t.Errorf("dim %d != %d", back.Dim, plan.Dim)
	}
}

func TestPublicAPICSVAndStream(t *testing.T) {
	csv := "s,u,x1\n0,0,1.5\n1,0,2.5\n0,1,3.5\n1,1,4.5\n"
	tbl, err := otfair.ReadCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 4 {
		t.Fatalf("len = %d", tbl.Len())
	}
	stream, err := otfair.NewCSVStream(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 4 {
		t.Errorf("streamed %d", n)
	}
}

func TestPublicAPIGeometricBaseline(t *testing.T) {
	research, _ := buildData(t, 4, 400, 0)
	repaired, err := otfair.GeometricRepair(research, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := otfair.MetricConfig{Estimator: otfair.MetricPlugin}
	before, _ := otfair.E(research, cfg)
	after, _ := otfair.E(repaired, cfg)
	if after > before/5 {
		t.Errorf("geometric baseline: E %v -> %v", before, after)
	}
}

func TestPublicAPILabelEstimation(t *testing.T) {
	research, archive := buildData(t, 5, 800, 4000)
	qda, err := otfair.NewQDA(research)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := qda.Accuracy(archive)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Errorf("label accuracy = %v", acc)
	}
}

func TestPublicAPIStreamRepair(t *testing.T) {
	research, archive := buildData(t, 7, 400, 1000)
	plan, err := otfair.Design(research, otfair.DesignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := otfair.NewRepairer(plan, otfair.NewRNG(8), otfair.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	n, err := rep.RepairStream(otfair.NewSliceStream(archive), func(r otfair.Record) error {
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != archive.Len() || count != archive.Len() {
		t.Errorf("streamed %d/%d of %d", n, count, archive.Len())
	}
	if rep.Diagnostics().Repaired == 0 {
		t.Error("diagnostics empty after stream repair")
	}
}

func TestPublicAPIAutoTune(t *testing.T) {
	research, _ := buildData(t, 10, 400, 0)
	res, err := otfair.AutoTuneNQ(research, otfair.NewRNG(11), otfair.AutoTuneOptions{
		Candidates: []int{10, 20, 30},
		Repeats:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.NQ < 10 {
		t.Errorf("autotune result = %+v", res)
	}
}

func TestPublicAPIQuantileRepair(t *testing.T) {
	research, archive := buildData(t, 12, 400, 800)
	qp, err := otfair.DesignQuantile(research, 1)
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := qp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	cfg := otfair.MetricConfig{Estimator: otfair.MetricPlugin}
	before, _ := otfair.E(archive, cfg)
	after, _ := otfair.E(repaired, cfg)
	if after > before/2 {
		t.Errorf("quantile repair: E %v -> %v", before, after)
	}
}

func TestPublicAPIParallelRepair(t *testing.T) {
	research, archive := buildData(t, 13, 400, 2000)
	plan, err := otfair.Design(research, otfair.DesignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := otfair.NewBatchRepairer(plan, otfair.BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	out, _, diag, err := engine.RepairTable(otfair.NewRNG(14), otfair.BlindHard, archive)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != archive.Len() || diag.Repaired == 0 {
		t.Errorf("parallel repair: %d records, %d values", out.Len(), diag.Repaired)
	}
}

func TestPublicAPIMMDCrossCheck(t *testing.T) {
	_, archive := buildData(t, 15, 300, 2000)
	mmd, err := otfair.MMDPerFeature(archive, otfair.MMDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mmd) != 2 {
		t.Fatalf("mmd = %v", mmd)
	}
	// The unrepaired simulation carries dependence the kernel must see.
	if mmd[0] <= 0 || mmd[1] <= 0 {
		t.Errorf("MMD missed the dependence: %v", mmd)
	}
}

func TestPublicAPIMetricDetails(t *testing.T) {
	research, _ := buildData(t, 9, 600, 0)
	res, err := otfair.ComputeMetric(research, otfair.MetricConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerFeature) != 2 || len(res.Details) != 4 {
		t.Errorf("result shape: %d features, %d details", len(res.PerFeature), len(res.Details))
	}
	per, err := otfair.EPerFeature(research, otfair.MetricConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 2 {
		t.Errorf("per-feature = %v", per)
	}
}
