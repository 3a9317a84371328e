package experiment

import (
	"fmt"
	"time"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/fairmetrics"
	"otfair/internal/joint"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// oppositeCorrScenario carries all s-dependence in the joint structure:
// identical standard-normal per-feature marginals, correlation +rho for
// s=0 and −rho for s=1 in both u-populations.
func oppositeCorrScenario(rho float64) simulate.Scenario {
	pos := [][]float64{{1, rho}, {rho, 1}}
	neg := [][]float64{{1, -rho}, {-rho, 1}}
	zero := []float64{0, 0}
	return simulate.Scenario{
		Dim: 2,
		Mean: map[dataset.Group][]float64{
			{U: 0, S: 0}: zero, {U: 0, S: 1}: zero,
			{U: 1, S: 0}: zero, {U: 1, S: 1}: zero,
		},
		Cov: map[dataset.Group][][]float64{
			{U: 0, S: 0}: pos, {U: 0, S: 1}: neg,
			{U: 1, S: 0}: pos, {U: 1, S: 1}: neg,
		},
		PrU0:       0.5,
		PrS0GivenU: [2]float64{0.5, 0.5},
	}
}

// jointRepairMetrics runs both repairs on one draw and reports every metric
// the X8 comparison needs.
func jointRepairMetrics(sc simulate.Scenario, r *rng.RNG, cfg SimConfig, jointNQ int) (map[string]float64, error) {
	sampler, err := simulate.NewSampler(sc)
	if err != nil {
		return nil, err
	}
	research, archive, err := drawWithAllGroups(sampler, r, cfg.NR, cfg.NA)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	record := func(prefix string, tab *dataset.Table, repaired bool) error {
		e, err := fairmetrics.E(tab, cfg.Metric)
		if err != nil {
			return err
		}
		out[prefix+"/E"] = e
		ej, err := fairmetrics.EJoint(tab, fairmetrics.JointConfig{})
		if err != nil {
			return err
		}
		out[prefix+"/EJoint"] = ej
		gap, err := fairmetrics.CorrelationGap(tab)
		if err != nil {
			return err
		}
		out[prefix+"/corrgap"] = gap
		if repaired {
			dmg, err := fairmetrics.Damage(archive, tab)
			if err != nil {
				return err
			}
			out[prefix+"/damage"] = dmg
		}
		return nil
	}
	if err := record("none", archive, false); err != nil {
		return nil, err
	}

	start := time.Now()
	mPlan, err := core.Design(research, core.Options{NQ: cfg.NQ})
	if err != nil {
		return nil, err
	}
	out["marginal/design_ms"] = float64(time.Since(start).Microseconds()) / 1000
	mrp, err := core.NewRepairer(mPlan, r.Split(1), core.RepairOptions{})
	if err != nil {
		return nil, err
	}
	marginalOut, err := mrp.RepairTable(archive)
	if err != nil {
		return nil, err
	}
	if err := record("marginal", marginalOut, true); err != nil {
		return nil, err
	}

	start = time.Now()
	jPlan, err := joint.Design(research, joint.Options{NQ: jointNQ})
	if err != nil {
		return nil, err
	}
	out["joint/design_ms"] = float64(time.Since(start).Microseconds()) / 1000
	jrp, err := joint.NewRepairer(jPlan, r.Split(2))
	if err != nil {
		return nil, err
	}
	jointOut, err := jrp.RepairTable(archive)
	if err != nil {
		return nil, err
	}
	if err := record("joint", jointOut, true); err != nil {
		return nil, err
	}
	return out, nil
}

// AblationJoint (X8) measures the intra-feature-correlation trade-off the
// paper's Section VI defers: the feature-stratified repair (Algorithm 1)
// against the full multivariate repair on (a) the paper's mean-shifted
// scenario and (b) a structure-only scenario where both s-groups share
// identical per-feature marginals but opposite correlation signs — the
// regime the per-feature repair is provably blind to.
func AblationJoint(cfg SimConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	const jointNQ = 16
	scenarios := []struct {
		id string
		sc simulate.Scenario
	}{
		{"paper", simulate.Paper()},
		{"corr", oppositeCorrScenario(0.8)},
	}
	stats := make(map[string]CellStat)
	for _, sn := range scenarios {
		s, err := RunMC(cfg.Reps, cfg.Workers, cfg.Seed+81, func(rep int, r *rng.RNG) (map[string]float64, error) {
			return jointRepairMetrics(sn.sc, r, cfg, jointNQ)
		})
		if err != nil {
			return nil, fmt.Errorf("%s scenario: %w", sn.id, err)
		}
		for k, v := range s {
			stats[sn.id+"/"+k] = v
		}
	}
	get := func(key string) Cell { return FromStat(stats[key]) }
	var rows []Row
	for _, sn := range scenarios {
		label := map[string]string{"paper": "Paper §V-A (mean shift)", "corr": "Structure-only (ρ = ±0.8)"}[sn.id]
		rows = append(rows,
			Row{Label: label + " — none", Cells: []Cell{
				get(sn.id + "/none/E"), get(sn.id + "/none/EJoint"), get(sn.id + "/none/corrgap"), NACell(), NACell(),
			}},
			Row{Label: label + " — per-feature", Cells: []Cell{
				get(sn.id + "/marginal/E"), get(sn.id + "/marginal/EJoint"), get(sn.id + "/marginal/corrgap"),
				get(sn.id + "/marginal/damage"), get(sn.id + "/marginal/design_ms"),
			}},
			Row{Label: label + " — joint", Cells: []Cell{
				get(sn.id + "/joint/E"), get(sn.id + "/joint/EJoint"), get(sn.id + "/joint/corrgap"),
				get(sn.id + "/joint/damage"), get(sn.id + "/joint/design_ms"),
			}},
		)
	}
	return &Table{
		Title: "Ablation X8: feature-stratified (Algorithm 1) vs joint multivariate repair (Section VI trade-off)",
		Note: fmt.Sprintf("archive metrics; nR=%d nA=%d, per-feature nQ=%d, joint nQ=%d/dim, %d replicates. E is the per-feature metric; EJoint and the correlation gap capture the dependence the feature split cannot see.",
			cfg.NR, cfg.NA, cfg.NQ, jointNQ, cfg.Reps),
		Header: []string{"Scenario / repair", "E", "EJoint", "Corr gap", "Damage", "Design (ms)"},
		Rows:   rows,
	}, nil
}
