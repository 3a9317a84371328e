package main

import (
	"os"
	"path/filepath"
	"testing"

	"otfair"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

func writeCSV(t *testing.T, path string, tab *otfair.Table) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func readCSV(t *testing.T, path string) *otfair.Table {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tab, err := otfair.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestLabelEstLabelsEveryRecord runs `fairrepair labelest` on an
// s-unlabelled archive: every output row is the input row with s set to
// the research-fitted QDA's MAP label.
func TestLabelEstLabelsEveryRecord(t *testing.T) {
	smp, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	research, archive, err := smp.ResearchArchive(rng.New(7), 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	researchPath := filepath.Join(dir, "research.csv")
	inPath := filepath.Join(dir, "archive.csv")
	outPath := filepath.Join(dir, "labelled.csv")
	writeCSV(t, researchPath, research)
	writeCSV(t, inPath, archive.DropS())

	if err := runLabelEst([]string{"-research", researchPath, "-in", inPath, "-out", outPath}); err != nil {
		t.Fatal(err)
	}

	in, out := readCSV(t, inPath), readCSV(t, outPath)
	if out.Len() != in.Len() {
		t.Fatalf("output has %d rows, input %d", out.Len(), in.Len())
	}
	qda, err := otfair.NewQDA(readCSV(t, researchPath))
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range out.Records() {
		rec := in.At(i)
		want, err := qda.Classify(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got.S != 0 && got.S != 1 {
			t.Fatalf("row %d: s = %d, want 0 or 1", i, got.S)
		}
		if got.S != want {
			t.Fatalf("row %d: s = %d, QDA.Classify = %d", i, got.S, want)
		}
		if got.U != rec.U || len(got.X) != len(rec.X) {
			t.Fatalf("row %d: u/x shape changed: %+v -> %+v", i, rec, got)
		}
		for j := range rec.X {
			if got.X[j] != rec.X[j] {
				t.Fatalf("row %d: x[%d] changed: %v -> %v", i, j, rec.X[j], got.X[j])
			}
		}
	}
}
