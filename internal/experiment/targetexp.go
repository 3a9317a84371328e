package experiment

import (
	"fmt"

	"otfair/internal/core"
	"otfair/internal/fairmetrics"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// AblationTarget (X10) compares the repair-target families of Section VI:
// the paper's W2 barycenter against the vertical mixture average and the
// moment-matched Gaussian. Any s-invariant target quenches E; they differ
// in how much they damage the data — the barycenter is the minimal-
// transport compromise by construction, the mixture target forces both
// groups onto a bimodal shape, and the Gaussian is a parametric shortcut
// that is exact in this Gaussian scenario and biased outside it.
func AblationTarget(cfg SimConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	targets := []core.TargetKind{core.TargetBarycenter, core.TargetMixture, core.TargetGaussian}
	stats, err := RunMC(cfg.Reps, cfg.Workers, cfg.Seed+101, func(rep int, r *rng.RNG) (map[string]float64, error) {
		sampler, err := simulate.NewSampler(simulate.Paper())
		if err != nil {
			return nil, err
		}
		research, archive, err := drawWithAllGroups(sampler, r, cfg.NR, cfg.NA)
		if err != nil {
			return nil, err
		}
		out := make(map[string]float64)
		eNone, err := fairmetrics.E(archive, cfg.Metric)
		if err != nil {
			return nil, err
		}
		out["none/E"] = eNone
		for ti, target := range targets {
			plan, err := core.Design(research, core.Options{NQ: cfg.NQ, Target: target})
			if err != nil {
				return nil, fmt.Errorf("%v: %w", target, err)
			}
			rp, err := core.NewRepairer(plan, r.Split(uint64(ti)+1), core.RepairOptions{})
			if err != nil {
				return nil, err
			}
			repaired, err := rp.RepairTable(archive)
			if err != nil {
				return nil, err
			}
			e, err := fairmetrics.E(repaired, cfg.Metric)
			if err != nil {
				return nil, err
			}
			dmg, err := fairmetrics.Damage(archive, repaired)
			if err != nil {
				return nil, err
			}
			cost := 0.0
			for u := 0; u < 2; u++ {
				for k := 0; k < plan.Dim; k++ {
					cost += plan.TransportCost(u, k)
				}
			}
			key := target.String()
			out[key+"/E"] = e
			out[key+"/damage"] = dmg
			out[key+"/cost"] = cost
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	get := func(key string) Cell { return FromStat(stats[key]) }
	rows := []Row{{Label: "None", Cells: []Cell{get("none/E"), NACell(), NACell()}}}
	labels := map[core.TargetKind]string{
		core.TargetBarycenter: "W2 barycenter (paper)",
		core.TargetMixture:    "Mixture (vertical average)",
		core.TargetGaussian:   "Gaussian (moment-matched)",
	}
	for _, target := range targets {
		key := target.String()
		rows = append(rows, Row{Label: labels[target], Cells: []Cell{
			get(key + "/E"), get(key + "/damage"), get(key + "/cost"),
		}})
	}
	return &Table{
		Title: "Ablation X10: repair-target families (Section VI non-Wasserstein designs)",
		Note: fmt.Sprintf("archive split of the simulation setting; nR=%d nA=%d nQ=%d, %d replicates. Transport cost is Σ W2²(p_s, ν) over all (u,s,k) plans.",
			cfg.NR, cfg.NA, cfg.NQ, cfg.Reps),
		Header: []string{"Target", "E (archive)", "Damage (MSD)", "Transport cost"},
		Rows:   rows,
	}, nil
}
