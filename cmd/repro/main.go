// Command repro regenerates every table and figure of the paper's
// evaluation plus the repository's ablations. Each experiment prints the
// same rows/series the paper reports; EXPERIMENTS.md records the measured
// outputs next to the published ones.
//
// Usage:
//
//	repro -exp table1|figure3|figure4|table2|downstream|labelest|all
//	      |ablation-{solver,partial,quantile,drift,blind,blind-separation,
//	                 joint,contu,target,individual,monitor,stopping}
//	      [-reps N] [-seed N] [-workers N] [-estimator plugin|histogram|kde]
//	      [-adult path/to/adult.data]
//
// With -exp all every experiment runs in paper order, the X1–X13 ablations
// after the paper's own artefacts.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"otfair/internal/experiment"
	"otfair/internal/fairmetrics"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id: table1, figure3, figure4, table2, downstream, labelest, all, or one of ablation-{solver,partial,quantile,drift,blind,blind-separation,joint,contu,target,individual,monitor,stopping}")
		reps      = flag.Int("reps", 0, "Monte-Carlo replicates (0 = experiment default: 200 sim / 5 adult)")
		sweepReps = flag.Int("sweep-reps", 50, "replicates per sweep point (figures 3 and 4)")
		seed      = flag.Uint64("seed", 0, "experiment seed (0 = default)")
		workers   = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		estimator = flag.String("estimator", "plugin", "E estimator: plugin, histogram, kde")
		adultPath = flag.String("adult", "", "optional path to a real UCI adult.data file (default: calibrated synthetic source)")
	)
	flag.Parse()

	est, err := fairmetrics.ParseEstimator(*estimator)
	if err != nil {
		fatal(err)
	}
	metric := fairmetrics.Config{Estimator: est}

	simCfg := experiment.SimConfig{
		Reps: *reps, Seed: *seed, Workers: *workers,
		Metric: metric, MetricSet: true,
	}
	sweepCfg := simCfg
	sweepCfg.Reps = *sweepReps
	adultCfg := experiment.AdultConfig{
		Reps: *reps, Seed: *seed, Workers: *workers,
		DataPath: *adultPath, Metric: metric, MetricSet: true,
	}

	type job struct {
		id  string
		run func() error
	}
	jobs := []job{
		{"table1", func() error { return renderTable(experiment.TableI(simCfg)) }},
		{"figure3", func() error { return renderFigure(experiment.Figure3(sweepCfg, nil)) }},
		{"figure4", func() error { return renderFigure(experiment.Figure4(sweepCfg, nil)) }},
		{"table2", func() error { return renderTable(experiment.TableII(adultCfg)) }},
		{"ablation-solver", func() error { return renderTable(experiment.AblationSolver(shrink(simCfg))) }},
		{"ablation-partial", func() error { return renderFigure(experiment.AblationPartial(shrink(simCfg), nil)) }},
		{"ablation-quantile", func() error { return renderTable(experiment.AblationQuantile(shrink(simCfg))) }},
		{"ablation-drift", func() error { return renderFigure(experiment.AblationDrift(shrink(simCfg), nil)) }},
		{"ablation-blind", func() error { return renderTable(experiment.AblationBlind(shrink(simCfg))) }},
		{"ablation-joint", func() error { return renderTable(experiment.AblationJoint(shrink(simCfg))) }},
		{"ablation-contu", func() error { return renderFigure(experiment.AblationContinuousU(shrink(simCfg), nil)) }},
		{"ablation-target", func() error { return renderTable(experiment.AblationTarget(shrink(simCfg))) }},
		{"ablation-individual", func() error { return renderFigure(experiment.AblationIndividual(shrink(simCfg), nil)) }},
		{"ablation-monitor", func() error { return renderTable(experiment.AblationMonitor(shrink(simCfg), nil)) }},
		{"ablation-stopping", func() error { return renderTable(experiment.AblationStopping(shrink(simCfg), nil)) }},
		{"ablation-blind-separation", func() error { return renderFigure(experiment.AblationBlindSeparation(shrink(simCfg), nil)) }},
		{"downstream", func() error { return renderTable(experiment.Downstream(adultCfg)) }},
		{"labelest", func() error { return renderTable(experiment.LabelEstimation(adultCfg)) }},
	}

	ran := 0
	for _, j := range jobs {
		if *exp != "all" && *exp != j.id {
			continue
		}
		ran++
		start := time.Now()
		fmt.Printf("== %s ==\n", j.id)
		if err := j.run(); err != nil {
			fatal(fmt.Errorf("%s: %w", j.id, err))
		}
		fmt.Printf("(%s in %.1fs)\n\n", j.id, time.Since(start).Seconds())
	}
	if ran == 0 {
		fatal(fmt.Errorf("unknown experiment %q; see -h", *exp))
	}
}

// shrink reduces replicate counts for the heavier ablations unless the user
// pinned -reps explicitly.
func shrink(cfg experiment.SimConfig) experiment.SimConfig {
	if cfg.Reps == 0 {
		cfg.Reps = 25
	}
	return cfg
}

func renderTable(t *experiment.Table, err error) error {
	if err != nil {
		return err
	}
	return t.Render(os.Stdout)
}

func renderFigure(f *experiment.Figure, err error) error {
	if err != nil {
		return err
	}
	return f.Render(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	os.Exit(1)
}
