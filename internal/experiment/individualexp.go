package experiment

import (
	"fmt"

	"otfair/internal/core"
	"otfair/internal/fairmetrics"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// AblationIndividual (X11) verifies the paper's Brenier prediction
// (Section VI): as n_Q → ∞ the Kantorovich plans converge to Monge maps, so
// the stochastic repair should stop splitting mass — feature-similar points
// become repaired similarly. The sweep reports the repair dispersion (std
// of repaired values within narrow input bins; 0 for a function) and the
// comonotonicity (order preservation; 1 for a monotone map) of the
// distributional repair as n_Q grows, with the deterministic quantile
// (Monge-style Feldman) repair as the reference.
func AblationIndividual(cfg SimConfig, nQs []int) (*Figure, error) {
	cfg = cfg.withDefaults()
	if len(nQs) == 0 {
		nQs = []int{5, 10, 25, 50, 100, 200}
	}
	const dispersionBins = 40
	dispersion := Series{Name: "dispersion (Kantorovich)"}
	comono := Series{Name: "comonotonicity (Kantorovich)"}
	dispersionQ := Series{Name: "dispersion (quantile/Monge ref)"}
	comonoQ := Series{Name: "comonotonicity (quantile/Monge ref)"}
	for _, nQ := range nQs {
		stats, err := RunMC(cfg.Reps, cfg.Workers, cfg.Seed+uint64(nQ)+111, func(rep int, r *rng.RNG) (map[string]float64, error) {
			sampler, err := simulate.NewSampler(simulate.Paper())
			if err != nil {
				return nil, err
			}
			research, archive, err := drawWithAllGroups(sampler, r, cfg.NR, cfg.NA)
			if err != nil {
				return nil, err
			}
			out := make(map[string]float64)

			plan, err := core.Design(research, core.Options{NQ: nQ})
			if err != nil {
				return nil, err
			}
			rp, err := core.NewRepairer(plan, r.Split(1), core.RepairOptions{})
			if err != nil {
				return nil, err
			}
			repaired, err := rp.RepairTable(archive)
			if err != nil {
				return nil, err
			}
			d, err := fairmetrics.RepairDispersion(archive, repaired, dispersionBins)
			if err != nil {
				return nil, err
			}
			c, err := fairmetrics.Comonotonicity(archive, repaired)
			if err != nil {
				return nil, err
			}
			out["disp"] = d
			out["comono"] = c

			qp, err := core.DesignQuantile(research, 1)
			if err != nil {
				return nil, err
			}
			qRepaired, err := qp.RepairTable(archive)
			if err != nil {
				return nil, err
			}
			dq, err := fairmetrics.RepairDispersion(archive, qRepaired, dispersionBins)
			if err != nil {
				return nil, err
			}
			cq, err := fairmetrics.Comonotonicity(archive, qRepaired)
			if err != nil {
				return nil, err
			}
			out["dispQ"] = dq
			out["comonoQ"] = cq
			return out, nil
		})
		if err != nil {
			return nil, fmt.Errorf("nQ=%d: %w", nQ, err)
		}
		x := float64(nQ)
		for _, pair := range []struct {
			s   *Series
			key string
		}{
			{&dispersion, "disp"}, {&comono, "comono"},
			{&dispersionQ, "dispQ"}, {&comonoQ, "comonoQ"},
		} {
			pair.s.X = append(pair.s.X, x)
			pair.s.Y = append(pair.s.Y, stats[pair.key].Mean)
			pair.s.Err = append(pair.s.Err, stats[pair.key].Std)
		}
	}
	return &Figure{
		Title: fmt.Sprintf("Ablation X11: individual fairness vs n_Q — Brenier convergence to a Monge map (nR=%d nA=%d, %d reps/point)",
			cfg.NR, cfg.NA, cfg.Reps),
		XLabel: "support resolution n_Q",
		YLabel: "value",
		Series: []Series{dispersion, comono, dispersionQ, comonoQ},
	}, nil
}
