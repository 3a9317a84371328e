package simulate

import (
	"math"
	"testing"

	"otfair/internal/dataset"
	"otfair/internal/rng"
	"otfair/internal/stat"
)

func TestPaperScenarioValid(t *testing.T) {
	if err := Paper().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesMistakes(t *testing.T) {
	sc := Paper()
	sc.Dim = 0
	if err := sc.Validate(); err == nil {
		t.Error("zero dim accepted")
	}

	sc = Paper()
	sc.PrU0 = 1.5
	if err := sc.Validate(); err == nil {
		t.Error("bad PrU0 accepted")
	}

	sc = Paper()
	sc.PrS0GivenU[1] = -0.1
	if err := sc.Validate(); err == nil {
		t.Error("bad PrS0GivenU accepted")
	}

	sc = Paper()
	delete(sc.Mean, dataset.Group{U: 1, S: 1})
	if err := sc.Validate(); err == nil {
		t.Error("missing mean accepted")
	}

	sc = Paper()
	sc.Mean[dataset.Group{U: 0, S: 0}] = []float64{1}
	if err := sc.Validate(); err == nil {
		t.Error("wrong-length mean accepted")
	}
}

func TestGroupProportions(t *testing.T) {
	s, err := NewSampler(Paper())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(42)
	tbl, err := s.Table(r, 50000)
	if err != nil {
		t.Fatal(err)
	}
	c := tbl.Counts()
	n := func(u, s int) float64 { return float64(c[dataset.Group{U: u, S: s}]) }
	if got := (n(1, 0) + n(1, 1)) / float64(tbl.Len()); math.Abs(got-0.5) > 0.01 {
		t.Errorf("Pr[u=1] = %v, want ~0.5", got)
	}
	// Pr(s=1|u=0) = 0.7, Pr(s=1|u=1) = 0.9.
	if got := n(0, 1) / (n(0, 0) + n(0, 1)); math.Abs(got-0.7) > 0.02 {
		t.Errorf("Pr[s=1|u=0] = %v, want ~0.7", got)
	}
	if got := n(1, 1) / (n(1, 0) + n(1, 1)); math.Abs(got-0.9) > 0.02 {
		t.Errorf("Pr[s=1|u=1] = %v, want ~0.9", got)
	}
}

func TestGroupMeans(t *testing.T) {
	s, err := NewSampler(Paper())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	tbl, err := s.Table(r, 40000)
	if err != nil {
		t.Fatal(err)
	}
	want := map[dataset.Group][]float64{
		{U: 0, S: 0}: {-1, -1},
		{U: 0, S: 1}: {0, 0},
		{U: 1, S: 0}: {1, 1},
		{U: 1, S: 1}: {0, 0},
	}
	for g, mean := range want {
		for k := range mean {
			col := tbl.GroupColumn(g, k)
			if len(col) < 100 {
				t.Fatalf("group %v too small: %d", g, len(col))
			}
			if got := stat.Mean(col); math.Abs(got-mean[k]) > 0.1 {
				t.Errorf("group %v feature %d mean = %v, want %v", g, k, got, mean[k])
			}
			if got := stat.StdDev(col); math.Abs(got-1) > 0.1 {
				t.Errorf("group %v feature %d std = %v, want 1", g, k, got)
			}
		}
	}
}

func TestResearchArchiveSizes(t *testing.T) {
	s, _ := NewSampler(Paper())
	r := rng.New(11)
	research, archive, err := s.ResearchArchive(r, 500, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if research.Len() != 500 || archive.Len() != 5000 {
		t.Fatalf("sizes %d/%d", research.Len(), archive.Len())
	}
	if _, _, err := s.ResearchArchive(r, 0, 10); err == nil {
		t.Error("zero research accepted")
	}
	if _, _, err := s.ResearchArchive(r, 10, -1); err == nil {
		t.Error("negative archive accepted")
	}
}

func TestSamplerDeterministic(t *testing.T) {
	s, _ := NewSampler(Paper())
	a, _ := s.Table(rng.New(3), 100)
	b, _ := s.Table(rng.New(3), 100)
	for i := 0; i < 100; i++ {
		ra, rb := a.At(i), b.At(i)
		if ra.S != rb.S || ra.U != rb.U || ra.X[0] != rb.X[0] || ra.X[1] != rb.X[1] {
			t.Fatalf("record %d differs between identically seeded samplers", i)
		}
	}
}

func TestCustomCovariance(t *testing.T) {
	sc := Paper()
	sc.Cov = map[dataset.Group][][]float64{
		{U: 0, S: 0}: {{4, 0}, {0, 4}},
	}
	s, err := NewSampler(sc)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(13)
	tbl, _ := s.Table(r, 40000)
	col := tbl.GroupColumn(dataset.Group{U: 0, S: 0}, 0)
	if got := stat.StdDev(col); math.Abs(got-2) > 0.15 {
		t.Errorf("custom covariance std = %v, want 2", got)
	}
	// Unspecified groups still default to identity.
	col = tbl.GroupColumn(dataset.Group{U: 1, S: 1}, 0)
	if got := stat.StdDev(col); math.Abs(got-1) > 0.1 {
		t.Errorf("default covariance std = %v, want 1", got)
	}
}

func TestNewSamplerRejectsBadCov(t *testing.T) {
	sc := Paper()
	sc.Cov = map[dataset.Group][][]float64{
		{U: 0, S: 0}: {{1, 2}, {2, 1}}, // indefinite
	}
	if _, err := NewSampler(sc); err == nil {
		t.Error("indefinite covariance accepted")
	}
}
