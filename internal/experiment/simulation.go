package experiment

import (
	"fmt"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/fairmetrics"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// SimConfig parameterizes the simulation-study experiments (Section V-A).
type SimConfig struct {
	// NR and NA are the research/archive sizes (paper: 500 / 5000).
	NR, NA int
	// NQ is the interpolated support resolution (paper: 50).
	NQ int
	// Reps is the Monte-Carlo replicate count (paper: 200).
	Reps int
	// Workers caps parallelism (0 = GOMAXPROCS).
	Workers int
	// Seed fixes the experiment stream.
	Seed uint64
	// Metric configures the E estimator. The zero value selects the
	// plug-in estimator, the convention consistent with the paper's
	// reported behaviour across sample sizes (see internal/fairmetrics and
	// EXPERIMENTS.md).
	Metric fairmetrics.Config
	// MetricSet marks Metric as caller-provided.
	MetricSet bool
}

func (c SimConfig) withDefaults() SimConfig {
	if c.NR == 0 {
		c.NR = 500
	}
	if c.NA == 0 {
		c.NA = 5000
	}
	if c.NQ == 0 {
		c.NQ = 50
	}
	if c.Reps == 0 {
		c.Reps = 200
	}
	if c.Seed == 0 {
		c.Seed = 20240320 // arXiv date of the paper; any fixed value works
	}
	if !c.MetricSet {
		c.Metric = fairmetrics.Config{Estimator: fairmetrics.EstimatorPlugin}
	}
	return c
}

// simReplicate draws one replicate of the paper's composite data set,
// designs the repair on the research part, and returns every E measurement
// Table I needs, keyed as "<repair>/<split>/k<feature>".
func simReplicate(cfg SimConfig, r *rng.RNG) (map[string]float64, error) {
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		return nil, err
	}
	research, archive, err := drawWithAllGroups(sampler, r, cfg.NR, cfg.NA)
	if err != nil {
		return nil, err
	}
	plan, err := core.Design(research, core.Options{NQ: cfg.NQ})
	if err != nil {
		return nil, err
	}
	repairer, err := core.NewRepairer(plan, r.Split(1), core.RepairOptions{})
	if err != nil {
		return nil, err
	}
	repairedResearch, err := repairer.RepairTable(research)
	if err != nil {
		return nil, err
	}
	repairedArchive, err := repairer.RepairTable(archive)
	if err != nil {
		return nil, err
	}
	geometric, err := core.GeometricRepair(research, 0.5)
	if err != nil {
		return nil, err
	}

	out := make(map[string]float64)
	record := func(prefix string, t *dataset.Table) error {
		res, err := fairmetrics.Compute(t, cfg.Metric)
		if err != nil {
			return fmt.Errorf("%s: %w", prefix, err)
		}
		for k, e := range res.PerFeature {
			out[fmt.Sprintf("%s/k%d", prefix, k+1)] = e
		}
		out[prefix+"/agg"] = res.Aggregate
		return nil
	}
	if err := record("none/research", research); err != nil {
		return nil, err
	}
	if err := record("none/archive", archive); err != nil {
		return nil, err
	}
	if err := record("dist/research", repairedResearch); err != nil {
		return nil, err
	}
	if err := record("dist/archive", repairedArchive); err != nil {
		return nil, err
	}
	if err := record("geo/research", geometric); err != nil {
		return nil, err
	}
	// Composite (research ∪ archive) repaired — what Figure 4 reports.
	composite := repairedResearch.Clone()
	for _, rec := range repairedArchive.Records() {
		if err := composite.Append(rec); err != nil {
			return nil, err
		}
	}
	if err := record("dist/composite", composite); err != nil {
		return nil, err
	}
	// Quantization damage of the composite repair: the cost side of the
	// nQ trade-off (coarse supports quench dependence but displace data).
	original := research.Clone()
	for _, rec := range archive.Records() {
		if err := original.Append(rec); err != nil {
			return nil, err
		}
	}
	dmg, err := fairmetrics.Damage(original, composite)
	if err != nil {
		return nil, err
	}
	out["dist/composite/damage"] = dmg
	return out, nil
}

// drawWithAllGroups redraws the research/archive split until every (u,s)
// research group holds at least two points (Algorithm 1 needs all four
// groups; at the Figure 3 extreme of nR = 25 the rarest group has an
// expected size of 1.25, so empty draws are routine rather than
// exceptional). Retries use derived deterministic streams.
func drawWithAllGroups(sampler *simulate.Sampler, r *rng.RNG, nR, nA int) (research, archive *dataset.Table, err error) {
	const maxTries = 200
	for try := 0; try < maxTries; try++ {
		rr := r
		if try > 0 {
			rr = r.Split(uint64(10_000 + try))
		}
		research, archive, err = sampler.ResearchArchive(rr, nR, nA)
		if err != nil {
			return nil, nil, err
		}
		counts := research.Counts()
		ok := true
		for _, g := range dataset.Groups() {
			if counts[g] < 2 {
				ok = false
				break
			}
		}
		if ok {
			return research, archive, nil
		}
	}
	return nil, nil, fmt.Errorf("experiment: no draw with all research groups populated after %d tries (nR=%d)", maxTries, nR)
}

// TableI reproduces Table I: E_k per feature for research and archive data,
// unrepaired vs distributional repair vs the geometric baseline (which is
// on-sample only, hence "-" in the archive columns), over Reps Monte-Carlo
// replicates.
func TableI(cfg SimConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	stats, err := RunMC(cfg.Reps, cfg.Workers, cfg.Seed, func(rep int, r *rng.RNG) (map[string]float64, error) {
		return simReplicate(cfg, r)
	})
	if err != nil {
		return nil, err
	}
	get := func(key string) Cell { return FromStat(stats[key]) }
	return &Table{
		Title: "Table I: OT-based repairs of simulated bivariate Gaussian sub-groups",
		Note: fmt.Sprintf("E metric (%s estimator), %d Monte-Carlo replicates; nR=%d nA=%d nQ=%d. Lower is better.",
			cfg.Metric.Estimator, cfg.Reps, cfg.NR, cfg.NA, cfg.NQ),
		Header: []string{"Repair", "E1 (Research)", "E2 (Research)", "E1 (Archive)", "E2 (Archive)"},
		Rows: []Row{
			{Label: "None", Cells: []Cell{
				get("none/research/k1"), get("none/research/k2"),
				get("none/archive/k1"), get("none/archive/k2"),
			}},
			{Label: "Distributional (ours)", Cells: []Cell{
				get("dist/research/k1"), get("dist/research/k2"),
				get("dist/archive/k1"), get("dist/archive/k2"),
			}},
			{Label: "Geometric [10]", Cells: []Cell{
				get("geo/research/k1"), get("geo/research/k2"),
				NACell(), NACell(),
			}},
		},
	}, nil
}

// Figure3 reproduces Figure 3: E (feature-aggregated) for repaired research
// and repaired archive data as the research size nR grows, with the
// unrepaired archive level as reference.
func Figure3(cfg SimConfig, nRs []int) (*Figure, error) {
	cfg = cfg.withDefaults()
	if len(nRs) == 0 {
		nRs = []int{25, 50, 100, 200, 350, 500, 750}
	}
	fig := &Figure{
		Title: fmt.Sprintf("Figure 3: E vs research size nR (nA=%d, nQ=%d, %d reps/point, %s estimator)",
			cfg.NA, cfg.NQ, cfg.Reps, cfg.Metric.Estimator),
		XLabel: "nR",
		YLabel: "E",
	}
	series := map[string]*Series{
		"research (repaired)": {Name: "research (repaired)"},
		"archive (repaired)":  {Name: "archive (repaired)"},
		"unrepaired":          {Name: "unrepaired"},
	}
	for _, nR := range nRs {
		run := cfg
		run.NR = nR
		stats, err := RunMC(run.Reps, run.Workers, run.Seed+uint64(nR), func(rep int, r *rng.RNG) (map[string]float64, error) {
			return simReplicate(run, r)
		})
		if err != nil {
			return nil, fmt.Errorf("nR=%d: %w", nR, err)
		}
		push := func(name, key string) {
			s := series[name]
			s.X = append(s.X, float64(nR))
			s.Y = append(s.Y, stats[key].Mean)
			s.Err = append(s.Err, stats[key].Std)
		}
		push("research (repaired)", "dist/research/agg")
		push("archive (repaired)", "dist/archive/agg")
		push("unrepaired", "none/archive/agg")
	}
	fig.Series = []Series{*series["research (repaired)"], *series["archive (repaired)"], *series["unrepaired"]}
	return fig, nil
}

// Figure4 reproduces Figure 4: E of the composite repaired data set
// (X_R ∪ X_A) as the interpolation resolution nQ grows.
func Figure4(cfg SimConfig, nQs []int) (*Figure, error) {
	cfg = cfg.withDefaults()
	if len(nQs) == 0 {
		nQs = []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}
	}
	s := Series{Name: "composite E (repaired)"}
	d := Series{Name: "composite damage (MSD)"}
	for _, nQ := range nQs {
		run := cfg
		run.NQ = nQ
		stats, err := RunMC(run.Reps, run.Workers, run.Seed+uint64(1000+nQ), func(rep int, r *rng.RNG) (map[string]float64, error) {
			return simReplicate(run, r)
		})
		if err != nil {
			return nil, fmt.Errorf("nQ=%d: %w", nQ, err)
		}
		s.X = append(s.X, float64(nQ))
		s.Y = append(s.Y, stats["dist/composite/agg"].Mean)
		s.Err = append(s.Err, stats["dist/composite/agg"].Std)
		d.X = append(d.X, float64(nQ))
		d.Y = append(d.Y, stats["dist/composite/damage"].Mean)
		d.Err = append(d.Err, stats["dist/composite/damage"].Std)
	}
	return &Figure{
		Title: fmt.Sprintf("Figure 4: composite E and damage vs support resolution nQ (nR=%d, nA=%d, %d reps/point, %s estimator)",
			cfg.NR, cfg.NA, cfg.Reps, cfg.Metric.Estimator),
		XLabel: "nQ",
		YLabel: "value",
		Series: []Series{s, d},
	}, nil
}
