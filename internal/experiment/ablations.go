package experiment

import (
	"fmt"
	"time"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/fairmetrics"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// AblationSolver (X1) compares the three OT solvers on the simulation
// setting: repair quality (E on the archive) and design wall time.
func AblationSolver(cfg SimConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	solvers := []core.SolverKind{core.SolverMonotone, core.SolverSimplex, core.SolverSinkhorn}
	stats, err := RunMC(cfg.Reps, cfg.Workers, cfg.Seed+21, func(rep int, r *rng.RNG) (map[string]float64, error) {
		sampler, err := simulate.NewSampler(simulate.Paper())
		if err != nil {
			return nil, err
		}
		research, archive, err := sampler.ResearchArchive(r, cfg.NR, cfg.NA)
		if err != nil {
			return nil, err
		}
		out := make(map[string]float64)
		for _, solver := range solvers {
			start := time.Now()
			plan, err := core.Design(research, core.Options{NQ: cfg.NQ, Solver: solver})
			if err != nil {
				return nil, fmt.Errorf("%v: %w", solver, err)
			}
			designMS := float64(time.Since(start).Microseconds()) / 1000
			repairer, err := core.NewRepairer(plan, r.Split(uint64(solver)+1), core.RepairOptions{})
			if err != nil {
				return nil, err
			}
			repaired, err := repairer.RepairTable(archive)
			if err != nil {
				return nil, err
			}
			e, err := fairmetrics.E(repaired, cfg.Metric)
			if err != nil {
				return nil, err
			}
			out[solver.String()+"/E"] = e
			out[solver.String()+"/design_ms"] = designMS
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	get := func(key string) Cell { return FromStat(stats[key]) }
	rows := make([]Row, 0, len(solvers))
	for _, s := range solvers {
		rows = append(rows, Row{
			Label: s.String(),
			Cells: []Cell{get(s.String() + "/E"), get(s.String() + "/design_ms")},
		})
	}
	return &Table{
		Title: "Ablation X1: OT solver choice (simulation setting)",
		Note: fmt.Sprintf("archive E after repair and Algorithm-1 design time; nR=%d nA=%d nQ=%d, %d replicates.",
			cfg.NR, cfg.NA, cfg.NQ, cfg.Reps),
		Header: []string{"Solver", "E (archive)", "Design (ms)"},
		Rows:   rows,
	}, nil
}

// AblationQuantile (X5) compares the distributional repair against the
// off-sample extension of the Feldman et al. quantile repair (the paper's
// [4]) on both splits of the simulation setting.
func AblationQuantile(cfg SimConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	stats, err := RunMC(cfg.Reps, cfg.Workers, cfg.Seed+41, func(rep int, r *rng.RNG) (map[string]float64, error) {
		sampler, err := simulate.NewSampler(simulate.Paper())
		if err != nil {
			return nil, err
		}
		research, archive, err := drawWithAllGroups(sampler, r, cfg.NR, cfg.NA)
		if err != nil {
			return nil, err
		}
		out := make(map[string]float64)
		record := func(prefix string, t *dataset.Table) error {
			e, err := fairmetrics.E(t, cfg.Metric)
			if err != nil {
				return err
			}
			out[prefix] = e
			return nil
		}
		if err := record("none/archive", archive); err != nil {
			return nil, err
		}
		plan, err := core.Design(research, core.Options{NQ: cfg.NQ})
		if err != nil {
			return nil, err
		}
		rp, err := core.NewRepairer(plan, r.Split(1), core.RepairOptions{})
		if err != nil {
			return nil, err
		}
		distA, err := rp.RepairTable(archive)
		if err != nil {
			return nil, err
		}
		if err := record("dist/archive", distA); err != nil {
			return nil, err
		}
		qp, err := core.DesignQuantile(research, 1)
		if err != nil {
			return nil, err
		}
		quantA, err := qp.RepairTable(archive)
		if err != nil {
			return nil, err
		}
		if err := record("quantile/archive", quantA); err != nil {
			return nil, err
		}
		dDist, err := fairmetrics.Damage(archive, distA)
		if err != nil {
			return nil, err
		}
		dQuant, err := fairmetrics.Damage(archive, quantA)
		if err != nil {
			return nil, err
		}
		out["dist/damage"] = dDist
		out["quantile/damage"] = dQuant
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	get := func(key string) Cell { return FromStat(stats[key]) }
	return &Table{
		Title: "Ablation X5: distributional (stochastic Kantorovich) vs quantile (deterministic Monge) off-sample repair",
		Note: fmt.Sprintf("archive split of the simulation setting; nR=%d nA=%d nQ=%d, %d replicates.",
			cfg.NR, cfg.NA, cfg.NQ, cfg.Reps),
		Header: []string{"Repair", "E (archive)", "Damage (MSD)"},
		Rows: []Row{
			{Label: "None", Cells: []Cell{get("none/archive"), NACell()}},
			{Label: "Distributional (Alg. 1+2)", Cells: []Cell{get("dist/archive"), get("dist/damage")}},
			{Label: "Quantile (Feldman [4], off-sample)", Cells: []Cell{get("quantile/archive"), get("quantile/damage")}},
		},
	}, nil
}

// AblationDrift (X6) violates the stationarity assumption: the archive's
// s=1 groups drift linearly away from the research population (differential
// drift, which changes the s-conditional relationship the plans were
// designed for) and the residual E after repair is measured as a function
// of the total drift in component-standard-deviation units.
func AblationDrift(cfg SimConfig, drifts []float64) (*Figure, error) {
	cfg = cfg.withDefaults()
	if len(drifts) == 0 {
		drifts = []float64{0, 0.25, 0.5, 1, 2}
	}
	repairedSeries := Series{Name: "archive (repaired)"}
	unrepairedSeries := Series{Name: "archive (unrepaired)"}
	for _, drift := range drifts {
		stats, err := RunMC(cfg.Reps, cfg.Workers, cfg.Seed+uint64(1000*drift)+51, func(rep int, r *rng.RNG) (map[string]float64, error) {
			sampler, err := simulate.NewSampler(simulate.Paper())
			if err != nil {
				return nil, err
			}
			research, _, err := drawWithAllGroups(sampler, r, cfg.NR, 0)
			if err != nil {
				return nil, err
			}
			ds, err := simulate.NewDriftStream(simulate.Paper(), r.Split(1), simulate.Drift{
				Group: map[dataset.Group][]float64{
					{U: 0, S: 1}: {drift, drift},
					{U: 1, S: 1}: {drift, drift},
				},
			}, cfg.NA)
			if err != nil {
				return nil, err
			}
			archive, err := ds.Table()
			if err != nil {
				return nil, err
			}
			plan, err := core.Design(research, core.Options{NQ: cfg.NQ})
			if err != nil {
				return nil, err
			}
			rp, err := core.NewRepairer(plan, r.Split(2), core.RepairOptions{})
			if err != nil {
				return nil, err
			}
			repaired, err := rp.RepairTable(archive)
			if err != nil {
				return nil, err
			}
			eRep, err := fairmetrics.E(repaired, cfg.Metric)
			if err != nil {
				return nil, err
			}
			eNone, err := fairmetrics.E(archive, cfg.Metric)
			if err != nil {
				return nil, err
			}
			return map[string]float64{"repaired": eRep, "unrepaired": eNone}, nil
		})
		if err != nil {
			return nil, fmt.Errorf("drift=%v: %w", drift, err)
		}
		repairedSeries.X = append(repairedSeries.X, drift)
		repairedSeries.Y = append(repairedSeries.Y, stats["repaired"].Mean)
		repairedSeries.Err = append(repairedSeries.Err, stats["repaired"].Std)
		unrepairedSeries.X = append(unrepairedSeries.X, drift)
		unrepairedSeries.Y = append(unrepairedSeries.Y, stats["unrepaired"].Mean)
		unrepairedSeries.Err = append(unrepairedSeries.Err, stats["unrepaired"].Std)
	}
	return &Figure{
		Title: fmt.Sprintf("Ablation X6: repair quality under archive drift (stationarity violation; nR=%d nA=%d nQ=%d, %d reps/point)",
			cfg.NR, cfg.NA, cfg.NQ, cfg.Reps),
		XLabel: "total drift (σ units)",
		YLabel: "E",
		Series: []Series{repairedSeries, unrepairedSeries},
	}, nil
}

// AblationPartial (X2) sweeps the partial-repair strength λ, reporting the
// residual dependence E and the data damage (mean squared displacement) —
// the trade-off Section VI defers to future work.
func AblationPartial(cfg SimConfig, amounts []float64) (*Figure, error) {
	cfg = cfg.withDefaults()
	if len(amounts) == 0 {
		amounts = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0}
	}
	eSeries := Series{Name: "E (archive)"}
	dSeries := Series{Name: "damage (MSD)"}
	for _, amount := range amounts {
		stats, err := RunMC(cfg.Reps, cfg.Workers, cfg.Seed+uint64(100*amount)+31, func(rep int, r *rng.RNG) (map[string]float64, error) {
			sampler, err := simulate.NewSampler(simulate.Paper())
			if err != nil {
				return nil, err
			}
			research, archive, err := sampler.ResearchArchive(r, cfg.NR, cfg.NA)
			if err != nil {
				return nil, err
			}
			plan, err := core.Design(research, core.Options{NQ: cfg.NQ, Amount: amount, AmountSet: true})
			if err != nil {
				return nil, err
			}
			repairer, err := core.NewRepairer(plan, r.Split(1), core.RepairOptions{})
			if err != nil {
				return nil, err
			}
			repaired, err := repairer.RepairTable(archive)
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
			return map[string]float64{"E": e, "damage": dmg}, nil
		})
		if err != nil {
			return nil, fmt.Errorf("amount=%v: %w", amount, err)
		}
		eSeries.X = append(eSeries.X, amount)
		eSeries.Y = append(eSeries.Y, stats["E"].Mean)
		eSeries.Err = append(eSeries.Err, stats["E"].Std)
		dSeries.X = append(dSeries.X, amount)
		dSeries.Y = append(dSeries.Y, stats["damage"].Mean)
		dSeries.Err = append(dSeries.Err, stats["damage"].Std)
	}
	return &Figure{
		Title: fmt.Sprintf("Ablation X2: partial repair — residual dependence vs damage (nR=%d nA=%d nQ=%d, %d reps/point)",
			cfg.NR, cfg.NA, cfg.NQ, cfg.Reps),
		XLabel: "repair amount λ",
		YLabel: "value",
		Series: []Series{eSeries, dSeries},
	}, nil
}
