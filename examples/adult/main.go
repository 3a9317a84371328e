// Adult pipeline: the paper's Section V-B experiment as an application —
// repair the gender dependence of age and working hours in (synthetic or
// real) Adult census data, including ŝ|u label estimation for an archive
// whose protected attributes were never recorded, and the downstream
// effect on an income classifier's disparate impact.
//
//	go run ./examples/adult [path/to/adult.data]
package main

import (
	"fmt"
	"log"
	"os"

	"otfair"
	"otfair/internal/adult"
	"otfair/internal/classify"
	"otfair/internal/rng"
)

func main() {
	r := rng.New(2024)

	// Data: real UCI file when given, calibrated synthetic otherwise. The
	// records are iid, so a sequential research/archive split is unbiased
	// and keeps the income labels aligned.
	var full *otfair.Table
	var income []int
	if len(os.Args) > 1 {
		var skipped int
		var err error
		full, income, skipped, err = adult.LoadFile(os.Args[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %d rows from %s (%d skipped)\n", full.Len(), os.Args[1], skipped)
	} else {
		var err error
		full, income, err = adult.Synthesize(r, 45222)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("synthesized %d Adult-like rows (pass a real adult.data path to use UCI data)\n", full.Len())
	}
	nR := 10000
	if full.Len() < 2*nR {
		nR = full.Len() / 4
	}
	research, err := subTable(full, 0, nR)
	if err != nil {
		log.Fatal(err)
	}
	archive, err := subTable(full, nR, full.Len())
	if err != nil {
		log.Fatal(err)
	}
	researchY := income[:nR]
	archiveY := income[nR:]

	// Design on research, repair the archive. Age and hours are integer
	// valued with a heavy atom at 40 h, so kernel dithering is on.
	plan, err := otfair.Design(research, otfair.DesignOptions{NQ: 250})
	if err != nil {
		log.Fatal(err)
	}
	opts := otfair.RepairOptions{KernelDither: true, Jitter: true}

	// The archive's protected attributes were never recorded: repair each
	// record under the MAP label ŝ|u of the QDA posterior fitted on the
	// research groups (Section IV, requirement 5).
	qda, err := otfair.NewQDA(research)
	if err != nil {
		log.Fatal(err)
	}
	acc, err := qda.Accuracy(archive)
	if err != nil {
		log.Fatal(err)
	}
	blindRep, err := otfair.NewBlindRepairer(plan, research, otfair.NewRNG(5),
		otfair.BlindOptions{Method: otfair.BlindHard, Repair: opts})
	if err != nil {
		log.Fatal(err)
	}
	repairedEst, err := blindRep.RepairTable(archive.DropS())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimated s|u labels for %d archival rows (accuracy vs ground truth: %.3f)\n",
		repairedEst.Len(), acc)

	rep, err := otfair.NewRepairer(plan, otfair.NewRNG(6), opts)
	if err != nil {
		log.Fatal(err)
	}
	repResearch, err := rep.RepairTable(research)
	if err != nil {
		log.Fatal(err)
	}
	// For contrast: the same repair when the archive's true labels ARE
	// available (the paper's Table II condition).
	repTrueRNG, err := otfair.NewRepairer(plan, otfair.NewRNG(7), opts)
	if err != nil {
		log.Fatal(err)
	}
	repairedTrue, err := repTrueRNG.RepairTable(archive)
	if err != nil {
		log.Fatal(err)
	}

	// Fairness before/after, scored against the TRUE protected labels.
	scored := repairedEst.Clone()
	for i := range scored.Records() {
		scored.Records()[i].S = archive.At(i).S
	}
	cfg := otfair.MetricConfig{Estimator: otfair.MetricPlugin}
	for _, c := range []struct {
		name string
		t    *otfair.Table
	}{
		{"unrepaired archive", archive},
		{"repaired (true s)", repairedTrue},
		{"repaired (est. s)", scored},
	} {
		per, err := otfair.EPerFeature(c.t, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s E[age] = %.4f  E[hours] = %.4f\n", c.name, per[0], per[1])
	}
	fmt.Println("(estimated-label repair is limited by label accuracy — the sensitivity")
	fmt.Println(" the paper flags in Section VI; gender is weakly identified from age+hours)")

	// Downstream: train an income classifier on research data (raw vs
	// repaired), score disparate impact (Definition 2.3) on the archive.
	rawModel, err := classify.Train(research.FeatureMatrix(), researchY, classify.TrainOptions{Epochs: 200})
	if err != nil {
		log.Fatal(err)
	}
	fairModel, err := classify.Train(repResearch.FeatureMatrix(), researchY, classify.TrainOptions{Epochs: 200})
	if err != nil {
		log.Fatal(err)
	}
	show := func(name string, t *otfair.Table, m *classify.Logistic) {
		rates, err := classify.Rates(t, m.Predict)
		if err != nil {
			log.Fatal(err)
		}
		accM, err := m.Accuracy(t.FeatureMatrix(), archiveY)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s acc = %.3f  DI(u=0) = %.3f  DI(u=1) = %.3f  (1 = parity, fair ≥ 0.8)\n",
			name, accM, rates.DisparateImpact(0), rates.DisparateImpact(1))
	}
	show("classifier, raw", archive, rawModel)
	show("classifier, repaired", repairedTrue, fairModel)
}

// subTable copies rows [lo, hi) of t into a fresh table.
func subTable(t *otfair.Table, lo, hi int) (*otfair.Table, error) {
	out, err := otfair.NewTable(t.Dim(), t.Names())
	if err != nil {
		return nil, err
	}
	for i := lo; i < hi; i++ {
		if err := out.Append(t.At(i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
