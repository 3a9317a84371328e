package experiment

import (
	"fmt"
	"io"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/monitor"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// AblationMonitor (X12) characterizes the stationarity guard: archival
// torrents drift the s=1 groups linearly up to a terminal magnitude, and
// the stream monitor reports whether it alarmed and how deep into the
// stream the first alarm fired. Drift 0 measures the false-alarm rate; the
// detection point should move earlier as the drift grows.
func AblationMonitor(cfg SimConfig, drifts []float64) (*Table, error) {
	cfg = cfg.withDefaults()
	if len(drifts) == 0 {
		drifts = []float64{0, 0.5, 1, 1.5, 2}
	}
	const streamLen = 12000
	rows := make([]Row, 0, len(drifts))
	for _, drift := range drifts {
		stats, err := RunMC(cfg.Reps, cfg.Workers, cfg.Seed+uint64(1000*drift)+121, func(rep int, r *rng.RNG) (map[string]float64, error) {
			sampler, err := simulate.NewSampler(simulate.Paper())
			if err != nil {
				return nil, err
			}
			research, _, err := drawWithAllGroups(sampler, r, cfg.NR, 0)
			if err != nil {
				return nil, err
			}
			plan, err := core.Design(research, core.Options{NQ: cfg.NQ})
			if err != nil {
				return nil, err
			}
			m, err := monitor.New(plan, monitor.Options{Window: 256})
			if err != nil {
				return nil, err
			}
			ds, err := simulate.NewDriftStream(simulate.Paper(), r.Split(1), simulate.Drift{
				Group: map[dataset.Group][]float64{
					{U: 0, S: 1}: {drift, drift},
					{U: 1, S: 1}: {drift, drift},
				},
			}, streamLen)
			if err != nil {
				return nil, err
			}
			firstAlarm := 0.0
			alarmCount := 0.0
			for {
				rec, err := ds.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, err
				}
				alarms, err := m.Observe(rec)
				if err != nil {
					return nil, err
				}
				if len(alarms) > 0 && firstAlarm == 0 {
					firstAlarm = float64(m.Seen())
				}
				alarmCount += float64(len(alarms))
			}
			detected := 0.0
			if alarmCount > 0 {
				detected = 1
			}
			out := map[string]float64{"detected": detected, "alarms": alarmCount}
			if detected == 1 {
				out["first"] = firstAlarm
			}
			return out, nil
		})
		if err != nil {
			return nil, fmt.Errorf("drift=%v: %w", drift, err)
		}
		firstCell := NACell()
		if stats["first"].N > 0 {
			firstCell = FromStat(stats["first"])
		}
		rows = append(rows, Row{
			Label: fmt.Sprintf("drift %.1fσ", drift),
			Cells: []Cell{FromStat(stats["detected"]), firstCell, FromStat(stats["alarms"])},
		})
	}
	return &Table{
		Title: "Ablation X12: drift-monitor operating characteristic (stationarity guard, Section IV req. 2)",
		Note: fmt.Sprintf("archival torrents of %d records with linearly ramped s=1 group drift; nR=%d nQ=%d, window 256, %d replicates. 'First alarm' averages detected replicates only.",
			streamLen, cfg.NR, cfg.NQ, cfg.Reps),
		Header: []string{"Terminal drift", "Detection rate", "First alarm (records)", "Alarms / stream"},
		Rows:   rows,
	}, nil
}

// AblationStopping (X13) exercises the Section VI stopping rule for
// research accrual: for each tolerance the rule reports how much research
// data it decided was enough. Looser tolerances stop earlier; the tight end
// should land near the n_R ≈ 10% knee the paper's Figure 3 finds.
func AblationStopping(cfg SimConfig, tols []float64) (*Table, error) {
	cfg = cfg.withDefaults()
	if len(tols) == 0 {
		tols = []float64{0.15, 0.10, 0.05, 0.03}
	}
	const pool = 3000
	rows := make([]Row, 0, len(tols))
	for _, tol := range tols {
		stats, err := RunMC(cfg.Reps, cfg.Workers, cfg.Seed+uint64(1000*tol)+131, func(rep int, r *rng.RNG) (map[string]float64, error) {
			sampler, err := simulate.NewSampler(simulate.Paper())
			if err != nil {
				return nil, err
			}
			research, _, err := sampler.ResearchArchive(r, pool, 0)
			if err != nil {
				return nil, err
			}
			res, err := monitor.ResearchStoppingRule(research, monitor.StoppingOptions{Batch: 50, Tol: tol})
			if err != nil {
				return nil, err
			}
			converged := 0.0
			if res.Converged {
				converged = 1
			}
			return map[string]float64{"nstop": float64(res.NStop), "converged": converged}, nil
		})
		if err != nil {
			return nil, fmt.Errorf("tol=%v: %w", tol, err)
		}
		rows = append(rows, Row{
			Label: fmt.Sprintf("tol %.2f", tol),
			Cells: []Cell{FromStat(stats["nstop"]), FromStat(stats["converged"])},
		})
	}
	return &Table{
		Title: "Ablation X13: research-accrual stopping rule (Section VI)",
		Note: fmt.Sprintf("sequential accrual from a %d-record pool in batches of 50, patience 2; %d replicates. Compare the tight-tolerance n_stop with Figure 3's convergence knee.",
			pool, cfg.Reps),
		Header: []string{"Tolerance", "n_stop", "Converged"},
		Rows:   rows,
	}, nil
}
