package experiment

import (
	"fmt"

	"otfair/internal/blind"
	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/fairmetrics"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// reattachTrueS copies the generator's true s labels back onto a
// blind-repaired table so E — which conditions on the true s — is
// evaluable.
func reattachTrueS(repaired, truth *dataset.Table) *dataset.Table {
	out := repaired.Clone()
	for i := range out.Records() {
		out.Records()[i].S = truth.At(i).S
	}
	return out
}

// blindMethods are the label-free strategies X7 compares.
var blindMethods = []blind.Method{blind.MethodHard, blind.MethodDraw, blind.MethodMix, blind.MethodPooled}

// AblationBlind (X7) quantifies the price of missing s labels: the archive
// is stripped of its labels and repaired by each strategy of
// internal/blind, compared against the labelled repair and no repair. The
// paper's Section VI names s|u-unlabelled archives as the priority future
// work; this is the corresponding experiment.
func AblationBlind(cfg SimConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	stats, err := RunMC(cfg.Reps, cfg.Workers, cfg.Seed+61, func(rep int, r *rng.RNG) (map[string]float64, error) {
		sampler, err := simulate.NewSampler(simulate.Paper())
		if err != nil {
			return nil, err
		}
		research, archive, err := drawWithAllGroups(sampler, r, cfg.NR, cfg.NA)
		if err != nil {
			return nil, err
		}
		unlabelled := archive.DropS()
		plan, err := core.Design(research, core.Options{NQ: cfg.NQ})
		if err != nil {
			return nil, err
		}
		out := make(map[string]float64)
		record := func(prefix string, repaired *dataset.Table) error {
			e, err := fairmetrics.E(reattachTrueS(repaired, archive), cfg.Metric)
			if err != nil {
				return err
			}
			out[prefix+"/E"] = e
			dmg, err := fairmetrics.Damage(archive, repaired)
			if err != nil {
				return err
			}
			out[prefix+"/damage"] = dmg
			return nil
		}

		eNone, err := fairmetrics.E(archive, cfg.Metric)
		if err != nil {
			return nil, err
		}
		out["none/E"] = eNone

		// Oracle: the labelled repair the blind methods chase.
		rp, err := core.NewRepairer(plan, r.Split(1), core.RepairOptions{})
		if err != nil {
			return nil, err
		}
		labelled, err := rp.RepairTable(archive)
		if err != nil {
			return nil, err
		}
		if err := record("true", labelled); err != nil {
			return nil, err
		}

		// QDA accuracy on this replicate, for the note column.
		qda, err := blind.NewQDA(research)
		if err != nil {
			return nil, err
		}
		acc, err := qda.Accuracy(archive)
		if err != nil {
			return nil, err
		}
		out["qda/acc"] = acc

		for mi, method := range blindMethods {
			brp, err := blind.New(plan, research, r.Split(uint64(mi)+2), blind.Options{Method: method})
			if err != nil {
				return nil, fmt.Errorf("%v: %w", method, err)
			}
			repaired, err := brp.RepairTable(unlabelled)
			if err != nil {
				return nil, fmt.Errorf("%v: %w", method, err)
			}
			if err := record(method.String(), repaired); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	get := func(key string) Cell { return FromStat(stats[key]) }
	rows := []Row{
		{Label: "None", Cells: []Cell{get("none/E"), NACell()}},
		{Label: "Labelled (oracle)", Cells: []Cell{get("true/E"), get("true/damage")}},
	}
	labels := map[blind.Method]string{
		blind.MethodHard:   "Blind: hard (MAP ŝ, QDA)",
		blind.MethodDraw:   "Blind: draw (ŝ ~ posterior)",
		blind.MethodMix:    "Blind: mix (per-feature posterior)",
		blind.MethodPooled: "Blind: pooled (group-blind transport)",
	}
	for _, m := range blindMethods {
		rows = append(rows, Row{Label: labels[m], Cells: []Cell{get(m.String() + "/E"), get(m.String() + "/damage")}})
	}
	return &Table{
		Title: "Ablation X7: repairing s|u-unlabelled archives (Section VI future work)",
		Note: fmt.Sprintf("archive E after repair without s labels; paper scenario, nR=%d nA=%d nQ=%d, %d replicates; QDA label accuracy %.3f. The overlapping groups (≈1σ apart) bound every posterior method; see the separation sweep.",
			cfg.NR, cfg.NA, cfg.NQ, cfg.Reps, stats["qda/acc"].Mean),
		Header: []string{"Repair", "E (archive)", "Damage (MSD)"},
		Rows:   rows,
	}, nil
}

// AblationBlindSeparation (X7b) sweeps the separation between the
// s-conditional components and reports the residual archive E for the
// labelled oracle, the MAP-label blind repair, and the fully group-blind
// pooled transport. As the groups separate the posterior sharpens and blind
// repair converges to the oracle, while the pooled map — which cannot split
// the mixture — stops helping at all.
func AblationBlindSeparation(cfg SimConfig, separations []float64) (*Figure, error) {
	cfg = cfg.withDefaults()
	if len(separations) == 0 {
		separations = []float64{0.5, 1, 2, 3, 4}
	}
	oracle := Series{Name: "labelled (oracle)"}
	hard := Series{Name: "blind: hard"}
	pooled := Series{Name: "blind: pooled"}
	none := Series{Name: "unrepaired"}
	for _, sep := range separations {
		sc := simulate.Scenario{
			Dim: 2,
			Mean: map[dataset.Group][]float64{
				{U: 0, S: 0}: {-sep, -sep},
				{U: 0, S: 1}: {0, 0},
				{U: 1, S: 0}: {sep, sep},
				{U: 1, S: 1}: {0, 0},
			},
			PrU0:       0.5,
			PrS0GivenU: [2]float64{0.3, 0.1},
		}
		stats, err := RunMC(cfg.Reps, cfg.Workers, cfg.Seed+uint64(100*sep)+71, func(rep int, r *rng.RNG) (map[string]float64, error) {
			sampler, err := simulate.NewSampler(sc)
			if err != nil {
				return nil, err
			}
			research, archive, err := drawWithAllGroups(sampler, r, cfg.NR, cfg.NA)
			if err != nil {
				return nil, err
			}
			unlabelled := archive.DropS()
			plan, err := core.Design(research, core.Options{NQ: cfg.NQ})
			if err != nil {
				return nil, err
			}
			out := make(map[string]float64)
			eNone, err := fairmetrics.E(archive, cfg.Metric)
			if err != nil {
				return nil, err
			}
			out["none"] = eNone

			rp, err := core.NewRepairer(plan, r.Split(1), core.RepairOptions{})
			if err != nil {
				return nil, err
			}
			labelled, err := rp.RepairTable(archive)
			if err != nil {
				return nil, err
			}
			e, err := fairmetrics.E(labelled, cfg.Metric)
			if err != nil {
				return nil, err
			}
			out["oracle"] = e

			for mi, method := range []blind.Method{blind.MethodHard, blind.MethodPooled} {
				brp, err := blind.New(plan, research, r.Split(uint64(mi)+2), blind.Options{Method: method})
				if err != nil {
					return nil, err
				}
				repaired, err := brp.RepairTable(unlabelled)
				if err != nil {
					return nil, err
				}
				e, err := fairmetrics.E(reattachTrueS(repaired, archive), cfg.Metric)
				if err != nil {
					return nil, err
				}
				out[method.String()] = e
			}
			return out, nil
		})
		if err != nil {
			return nil, fmt.Errorf("separation=%v: %w", sep, err)
		}
		for _, pair := range []struct {
			s   *Series
			key string
		}{{&oracle, "oracle"}, {&hard, "hard"}, {&pooled, "pooled"}, {&none, "none"}} {
			pair.s.X = append(pair.s.X, sep)
			pair.s.Y = append(pair.s.Y, stats[pair.key].Mean)
			pair.s.Err = append(pair.s.Err, stats[pair.key].Std)
		}
	}
	return &Figure{
		Title: fmt.Sprintf("Ablation X7b: blind repair vs s-group separation (nR=%d nA=%d nQ=%d, %d reps/point)",
			cfg.NR, cfg.NA, cfg.NQ, cfg.Reps),
		XLabel: "component separation (σ units per coordinate)",
		YLabel: "E (archive)",
		Series: []Series{none, oracle, hard, pooled},
	}, nil
}
