package adult

import (
	"math"
	"strings"
	"testing"

	"otfair/internal/dataset"
	"otfair/internal/fairmetrics"
	"otfair/internal/rng"
	"otfair/internal/stat"
)

const sampleRows = `39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical, Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K
50, Self-emp-not-inc, 83311, Bachelors, 13, Married-civ-spouse, Exec-managerial, Husband, White, Male, 0, 0, 13, United-States, <=50K
38, Private, 215646, HS-grad, 9, Divorced, Handlers-cleaners, Not-in-family, White, Male, 0, 0, 40, United-States, <=50K
28, Private, 338409, Bachelors, 13, Married-civ-spouse, Prof-specialty, Wife, Black, Female, 0, 0, 40, Cuba, >50K
37, Private, 284582, Masters, 14, Married-civ-spouse, Exec-managerial, Wife, White, Female, 0, 0, 40, United-States, >50K.
49, Private, ?, 9th, 5, Married-spouse-absent, Other-service, Not-in-family, Black, Female, 0, 0, 16, Jamaica, <=50K
52, ?, 209642, HS-grad, 9, Married-civ-spouse, Exec-managerial, Husband, White, Male, 0, 0, 45, United-States, >50K
`

func TestLoadParsesUCIFormat(t *testing.T) {
	tbl, income, skipped, err := Load(strings.NewReader(sampleRows))
	if err != nil {
		t.Fatal(err)
	}
	// All 7 rows have the required fields (the ? values are in unused
	// columns), so nothing is skipped.
	if skipped != 0 {
		t.Errorf("skipped = %d", skipped)
	}
	if tbl.Len() != 7 || len(income) != 7 {
		t.Fatalf("rows = %d, income = %d", tbl.Len(), len(income))
	}
	first := tbl.At(0)
	if first.X[0] != 39 || first.X[1] != 40 || first.S != 1 || first.U != 1 {
		t.Errorf("first record = %+v", first)
	}
	// HS-grad (education-num 9) is non-college.
	if tbl.At(2).U != 0 {
		t.Error("HS-grad mapped to college")
	}
	// Female wife with Bachelors.
	if r := tbl.At(3); r.S != 0 || r.U != 1 {
		t.Errorf("record 4 = %+v", r)
	}
	// adult.test trailing period on income.
	if income[4] != 1 {
		t.Error(">50K. not parsed")
	}
	if income[0] != 0 || income[3] != 1 {
		t.Errorf("income = %v", income)
	}
}

func TestLoadSkipsMissingRequiredFields(t *testing.T) {
	rows := `?, Private, 1, Bachelors, 13, x, x, x, x, Male, 0, 0, 40, US, <=50K
39, Private, 1, Bachelors, 13, x, x, x, x, ?, 0, 0, 40, US, <=50K
39, Private, 1, Bachelors, 13, x, x, x, x, Male, 0, 0, 40, US, <=50K
`
	tbl, _, skipped, err := Load(strings.NewReader(rows))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 || skipped != 2 {
		t.Errorf("len = %d, skipped = %d", tbl.Len(), skipped)
	}
}

func TestLoadRejectsMalformed(t *testing.T) {
	cases := []string{
		"1,2,3",
		"x, Private, 1, Bachelors, 13, x, x, x, x, Male, 0, 0, 40, US, <=50K",
		"39, Private, 1, Bachelors, nope, x, x, x, x, Male, 0, 0, 40, US, <=50K",
		"39, Private, 1, Bachelors, 13, x, x, x, x, Robot, 0, 0, 40, US, <=50K",
		"39, Private, 1, Bachelors, 13, x, x, x, x, Male, 0, 0, bad, US, <=50K",
		"39, Private, 1, Bachelors, 13, x, x, x, x, Male, 0, 0, 40, US, maybe",
	}
	for i, c := range cases {
		if _, _, _, err := Load(strings.NewReader(c + "\n")); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}

func TestLoadEmptyInput(t *testing.T) {
	if _, _, _, err := Load(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	// Banner and blank lines only.
	if _, _, _, err := Load(strings.NewReader("|1x90 test\n\n")); err == nil {
		t.Error("banner-only input accepted")
	}
}

func TestSynthesizeShapes(t *testing.T) {
	r := rng.New(1)
	tbl, income, err := Synthesize(r, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 20000 || len(income) != 20000 {
		t.Fatalf("sizes %d/%d", tbl.Len(), len(income))
	}
	if _, _, err := Synthesize(r, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestSynthesizeGroupProportions(t *testing.T) {
	r := rng.New(2)
	tbl, _, err := Synthesize(r, 50000)
	if err != nil {
		t.Fatal(err)
	}
	c := tbl.Counts()
	n := func(u, s int) float64 { return float64(c[dataset.Group{U: u, S: s}]) }
	if got := (n(1, 0) + n(1, 1)) / float64(tbl.Len()); math.Abs(got-0.25) > 0.01 {
		t.Errorf("Pr[u=1] = %v, want ~0.25", got)
	}
	if got := n(0, 1) / (n(0, 0) + n(0, 1)); math.Abs(got-0.65) > 0.02 {
		t.Errorf("Pr[male|non-college] = %v", got)
	}
	if got := n(1, 1) / (n(1, 0) + n(1, 1)); math.Abs(got-0.72) > 0.02 {
		t.Errorf("Pr[male|college] = %v", got)
	}
}

func TestSynthesizeFeatureRanges(t *testing.T) {
	r := rng.New(3)
	tbl, _, err := Synthesize(r, 20000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tbl.Len(); i++ {
		rec := tbl.At(i)
		age, hours := rec.X[0], rec.X[1]
		if age < 17 || age > 90 || age != math.Round(age) {
			t.Fatalf("bad age %v", age)
		}
		if hours < 1 || hours > 99 || hours != math.Round(hours) {
			t.Fatalf("bad hours %v", hours)
		}
	}
}

func TestSynthesizeHoursPointMassAt40(t *testing.T) {
	r := rng.New(4)
	tbl, _, _ := Synthesize(r, 30000)
	at40 := 0
	for i := 0; i < tbl.Len(); i++ {
		if tbl.At(i).X[1] == 40 {
			at40++
		}
	}
	frac := float64(at40) / float64(tbl.Len())
	if frac < 0.35 || frac > 0.55 {
		t.Errorf("mass at 40h = %v, want ~0.45", frac)
	}
}

func TestSynthesizeGenderStructureMatchesPaper(t *testing.T) {
	// Hours must be the more gender-separated feature (paper Table II:
	// E_hours ≈ 2.7 > E_age ≈ 1.1 unrepaired), and college groups older.
	r := rng.New(5)
	tbl, _, _ := Synthesize(r, 40000)
	res, err := fairmetrics.Compute(tbl, fairmetrics.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eAge, eHours := res.PerFeature[0], res.PerFeature[1]
	if eHours <= eAge {
		t.Errorf("E_hours = %v not above E_age = %v", eHours, eAge)
	}
	if eAge <= 0 {
		t.Errorf("age carries no dependence: %v", eAge)
	}
	collegeAge := stat.Mean(tbl.UColumn(1, 0))
	nonCollegeAge := stat.Mean(tbl.UColumn(0, 0))
	if collegeAge <= nonCollegeAge {
		t.Errorf("college age %v not above non-college %v", collegeAge, nonCollegeAge)
	}
	// Males work longer hours on average within each u.
	for u := 0; u < 2; u++ {
		m := stat.Mean(tbl.GroupColumn(dataset.Group{U: u, S: 1}, 1))
		f := stat.Mean(tbl.GroupColumn(dataset.Group{U: u, S: 0}, 1))
		if m <= f {
			t.Errorf("u=%d male hours %v not above female %v", u, m, f)
		}
	}
}

func TestSynthesizeIncomeStructure(t *testing.T) {
	r := rng.New(6)
	tbl, income, _ := Synthesize(r, 40000)
	// Income should be biased towards college and male groups.
	var rate [2][2]float64
	var n [2][2]int
	for i := 0; i < tbl.Len(); i++ {
		rec := tbl.At(i)
		n[rec.U][rec.S]++
		rate[rec.U][rec.S] += float64(income[i])
	}
	for u := 0; u < 2; u++ {
		for s := 0; s < 2; s++ {
			rate[u][s] /= float64(n[u][s])
		}
	}
	if !(rate[1][1] > rate[0][1] && rate[1][0] > rate[0][0]) {
		t.Errorf("education gradient missing: %v", rate)
	}
	if !(rate[0][1] > rate[0][0] && rate[1][1] > rate[1][0]) {
		t.Errorf("gender gradient missing: %v", rate)
	}
	overall := 0.0
	for _, y := range income {
		overall += float64(y)
	}
	overall /= float64(len(income))
	// Adult's >50K share is ≈ 0.24; calibration should be in that region.
	if overall < 0.1 || overall > 0.45 {
		t.Errorf("Pr[>50K] = %v", overall)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, ia, _ := Synthesize(rng.New(7), 500)
	b, ib, _ := Synthesize(rng.New(7), 500)
	for i := 0; i < 500; i++ {
		if a.At(i).X[0] != b.At(i).X[0] || ia[i] != ib[i] {
			t.Fatal("synthesis not deterministic")
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, _, _, err := LoadFile("/nonexistent/adult.data"); err == nil {
		t.Error("missing file accepted")
	}
}
