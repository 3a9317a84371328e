package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// TestRepairRejectsNaNRow runs `fairrepair repair` and `fairrepair
// blindrepair` on an archive with a NaN feature, on a plan from
// `fairrepair design`: each fails with an error naming the NaN instead of
// panicking in the τ-snap.
func TestRepairRejectsNaNRow(t *testing.T) {
	smp, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	research, _, err := smp.ResearchArchive(rng.New(11), 400, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	researchPath := filepath.Join(dir, "research.csv")
	planPath := filepath.Join(dir, "plan.json")
	outPath := filepath.Join(dir, "out.csv")
	writeCSV(t, researchPath, research)
	if err := runDesign([]string{"-research", researchPath, "-plan", planPath}); err != nil {
		t.Fatal(err)
	}
	header := strings.Join(append([]string{"s", "u"}, research.Names()...), ",") + "\n"
	archive := func(name, rows string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(header+rows), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	labelled := archive("labelled.csv", "1,0,0.5,0.1\n1,0,NaN,0.1\n")
	unlabelled := archive("unlabelled.csv", "?,0,0.5,0.1\n?,0,NaN,0.1\n")

	blindRun := func(method, in string) []string {
		return []string{"blindrepair", "-method", method, "-plan", planPath, "-research", researchPath, "-in", in, "-out", outPath}
	}
	for _, args := range [][]string{
		{"repair", "-plan", planPath, "-in", labelled, "-out", outPath},
		blindRun("hard", labelled),
		blindRun("hard", unlabelled),
		blindRun("draw", unlabelled),
		blindRun("mix", unlabelled),
		blindRun("pooled", unlabelled),
	} {
		name := args[0]
		if name == "blindrepair" {
			name += "/" + args[2] + "/" + filepath.Base(args[8])
		}
		t.Run(name, func(t *testing.T) {
			run := runRepair
			if args[0] == "blindrepair" {
				run = runBlindRepair
			}
			err := run(args[1:])
			if err == nil || !strings.Contains(err.Error(), "NaN") {
				t.Fatalf("NaN row: err = %v, want an error naming the NaN", err)
			}
		})
	}
}
