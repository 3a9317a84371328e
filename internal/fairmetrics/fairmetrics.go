// Package fairmetrics implements the paper's fairness measure for data:
// the per-feature s|u-dependence metric E_u (Definition 2.4, a symmetrized
// Kullback–Leibler divergence between the s-conditional feature densities)
// and its Pr[u]-weighted aggregate E (Eq. 3). Lower E means fairer data;
// E = 0 iff (X ⊥ S) | U feature-wise.
//
// The estimator follows the paper's KDE pipeline: Gaussian-kernel density
// estimates of f(x_k | s, u) evaluated on a shared uniform grid spanning
// the pooled sample range, floored and normalized into pmfs, then
// symmetrized discrete KL. The paper does not pin down the grid or floor
// conventions, so both are explicit Config knobs and EXPERIMENTS.md reports
// shape/ratio comparisons rather than absolute matches.
package fairmetrics

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"otfair/internal/dataset"
	"otfair/internal/divergence"
	"otfair/internal/kde"
	"otfair/internal/stat"
)

// Estimator selects how the s|u-conditional densities are estimated.
type Estimator int

const (
	// EstimatorKDE (default) smooths each conditional with a Gaussian KDE
	// before comparing: statistically consistent, converges to the true
	// symmetrized KL (e.g. 0.5 per feature for the paper's simulation).
	EstimatorKDE Estimator = iota
	// EstimatorHistogram compares raw binned frequencies with floored empty
	// bins. Support mismatch in the tails then dominates; sensitive to
	// small-sample sparsity.
	EstimatorHistogram
	// EstimatorPlugin is the Monte-Carlo plug-in estimator
	//   D̂(f0‖f1) = (1/n0) Σ_i [log f̂0(x_{0,i}) − log f̂1(x_{0,i})],
	// the average KDE log-likelihood ratio over the sample itself. Extreme
	// sample points in the opposite group's thin tail dominate, which
	// reproduces the paper's magnitude regime (unrepaired simulation
	// E ≈ 6–8, repaired ≈ 0.1 even for 25-point subgroups); it is the
	// estimator the reproduction harness uses for Tables I/II and
	// Figures 3/4.
	EstimatorPlugin
)

// String names the estimator for CLI flags and reports.
func (e Estimator) String() string {
	switch e {
	case EstimatorHistogram:
		return "histogram"
	case EstimatorPlugin:
		return "plugin"
	default:
		return "kde"
	}
}

// ParseEstimator resolves a CLI estimator name.
func ParseEstimator(name string) (Estimator, error) {
	switch name {
	case "kde", "":
		return EstimatorKDE, nil
	case "histogram":
		return EstimatorHistogram, nil
	case "plugin":
		return EstimatorPlugin, nil
	default:
		return 0, fmt.Errorf("fairmetrics: unknown estimator %q", name)
	}
}

// Config controls the E estimator.
type Config struct {
	// Estimator selects KDE (default) or histogram density estimation.
	Estimator Estimator
	// GridSize is the number of evaluation grid points (default 512 for
	// KDE, 64 bins for histogram).
	GridSize int
	// Floor is the probability floor before log-ratios (default
	// divergence.DefaultFloor).
	Floor float64
	// Kernel is the KDE kernel (default Gaussian, the paper's choice).
	Kernel kde.Kernel
	// Bandwidth is the KDE bandwidth rule (default Silverman, Eq. 12).
	Bandwidth kde.Bandwidth
	// PadBandwidths extends the evaluation grid beyond the pooled sample
	// range by this many (max) bandwidths so KDE tails are represented
	// (default 1).
	PadBandwidths float64
	// Workers fans the per-(u, feature) cell estimates across goroutines
	// (0 = GOMAXPROCS, 1 = serial). Each cell is independent and the
	// assembly order is fixed, so the result is identical for any worker
	// count.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.GridSize <= 0 {
		if c.Estimator == EstimatorHistogram {
			c.GridSize = 64
		} else {
			c.GridSize = 512
		}
	}
	if c.Floor <= 0 {
		c.Floor = divergence.DefaultFloor
	}
	if c.PadBandwidths < 0 {
		c.PadBandwidths = 0
	} else if c.PadBandwidths == 0 {
		c.PadBandwidths = 1
	}
	return c
}

// Detail records one (u, k) cell of the metric for diagnostics.
type Detail struct {
	U       int
	Feature int
	// EU is the symmetrized KL between f(x_k|s=0,u) and f(x_k|s=1,u).
	EU float64
	// WeightU is the empirical Pr[u] used in the aggregation.
	WeightU float64
	// N0, N1 are the per-s sample sizes the densities were fitted on.
	N0, N1 int
}

// Result carries E stratified every way the paper reports it.
type Result struct {
	// PerFeature[k] is E_k = Σ_u Pr[u]·E_{u,k} (the Table I / II cells).
	PerFeature []float64
	// Aggregate is the feature-average of PerFeature (the Figure 3/4 "E",
	// which the paper describes as E aggregated over both features).
	Aggregate float64
	// Details lists every (u, k) cell.
	Details []Detail
}

// Compute evaluates the E metric on the labelled records of a table.
// Records with unknown S are ignored. Every u-population present must
// contain both s-classes; a missing class is an error because E_u is then
// undefined.
func Compute(t *dataset.Table, cfg Config) (*Result, error) {
	if t == nil || t.Len() == 0 {
		return nil, errors.New("fairmetrics: empty table")
	}
	cfg = cfg.withDefaults()

	// Empirical Pr[u] over labelled records.
	nU := [2]int{}
	for _, r := range t.Records() {
		if r.S == dataset.SUnknown {
			continue
		}
		nU[r.U]++
	}
	total := nU[0] + nU[1]
	if total == 0 {
		return nil, errors.New("fairmetrics: no labelled records")
	}

	// Enumerate the (feature, u) cells in the fixed assembly order; each is
	// an independent density-estimation problem, which is what makes the
	// fan-out below deterministic: workers only write their own slot.
	type cellJob struct{ k, u int }
	var jobs []cellJob
	for k := 0; k < t.Dim(); k++ {
		for u := 0; u < 2; u++ {
			if nU[u] > 0 {
				jobs = append(jobs, cellJob{k: k, u: u})
			}
		}
	}
	cols := t.GroupColumns()
	details := make([]Detail, len(jobs))
	errs := make([]error, len(jobs))
	run := func(j int) {
		job := jobs[j]
		x0, x1 := cols[job.u][0][job.k], cols[job.u][1][job.k]
		if len(x0) == 0 || len(x1) == 0 {
			errs[j] = fmt.Errorf("fairmetrics: u=%d population lacks an s-class (n0=%d, n1=%d)", job.u, len(x0), len(x1))
			return
		}
		eu, err := symKLOnSharedGrid(x0, x1, cfg)
		if err != nil {
			errs[j] = fmt.Errorf("fairmetrics: u=%d feature %d: %w", job.u, job.k, err)
			return
		}
		details[j] = Detail{
			U: job.u, Feature: job.k, EU: eu,
			WeightU: float64(nU[job.u]) / float64(total),
			N0:      len(x0), N1: len(x1),
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for j := range jobs {
			run(j)
			// Serial mode fails fast; jobs run in cell order, so this is
			// the same first-in-order error the scan below reports.
			if errs[j] != nil {
				return nil, errs[j]
			}
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range next {
					run(j)
				}
			}()
		}
		for j := range jobs {
			next <- j
		}
		close(next)
		wg.Wait()
	}
	// First error in cell order, so serial and parallel runs fail alike.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res := &Result{PerFeature: make([]float64, t.Dim()), Details: details}
	for j, job := range jobs {
		res.PerFeature[job.k] += details[j].WeightU * details[j].EU
	}
	res.Aggregate = stat.Mean(res.PerFeature)
	return res, nil
}

// symKLOnSharedGrid estimates both conditional densities on a shared grid
// spanning the pooled range and returns the floored symmetrized KL.
func symKLOnSharedGrid(x0, x1 []float64, cfg Config) (float64, error) {
	switch cfg.Estimator {
	case EstimatorHistogram:
		return symKLHistogram(x0, x1, cfg)
	case EstimatorPlugin:
		return symKLPlugin(x0, x1, cfg)
	default:
		return symKLKDE(x0, x1, cfg)
	}
}

// symKLPlugin is the Monte-Carlo plug-in estimator: both KDEs are tabulated
// on a fine shared grid once (with the kernel-cutoff fast path) and
// evaluated at the sample points by linear interpolation; log-densities are
// floored at 1e-300 to stay finite under total underflow.
func symKLPlugin(x0, x1 []float64, cfg Config) (float64, error) {
	e0, err := kde.New(x0, cfg.Kernel, cfg.Bandwidth)
	if err != nil {
		return 0, err
	}
	e1, err := kde.New(x1, cfg.Kernel, cfg.Bandwidth)
	if err != nil {
		return 0, err
	}
	lo0, hi0, err := stat.MinMax(x0)
	if err != nil {
		return 0, err
	}
	lo1, hi1, err := stat.MinMax(x1)
	if err != nil {
		return 0, err
	}
	lo, hi := math.Min(lo0, lo1), math.Max(hi0, hi1)
	if !(hi > lo) {
		return 0, nil // degenerate pooled sample
	}
	// Fine tabulation grid: interpolation error is O((Δ/h)²) relative; with
	// 4096 cells it is far below the estimator's own Monte-Carlo noise.
	const gridN = 4096
	pad := 1e-9 * (hi - lo)
	grid := stat.Linspace(lo-pad, hi+pad, gridN)
	d0 := e0.EvalGrid(grid)
	d1 := e1.EvalGrid(grid)
	step := (grid[gridN-1] - grid[0]) / float64(gridN-1)
	logAt := func(dens []float64, x float64) float64 {
		pos := (x - grid[0]) / step
		i := int(pos)
		if i < 0 {
			i = 0
		}
		if i >= gridN-1 {
			i = gridN - 2
		}
		frac := pos - float64(i)
		v := dens[i]*(1-frac) + dens[i+1]*frac
		if v < 1e-300 {
			v = 1e-300
		}
		return math.Log(v)
	}
	mean01 := 0.0 // D(f0 ‖ f1) sampled under f0
	for _, x := range x0 {
		mean01 += logAt(d0, x) - logAt(d1, x)
	}
	mean01 /= float64(len(x0))
	mean10 := 0.0
	for _, x := range x1 {
		mean10 += logAt(d1, x) - logAt(d0, x)
	}
	mean10 /= float64(len(x1))
	e := 0.5*mean01 + 0.5*mean10
	if e < 0 {
		e = 0 // plug-in bias can go slightly negative for identical inputs
	}
	return e, nil
}

// symKLHistogram bins both samples onto shared uniform bins over the pooled
// range; empty bins are floored, so disjoint tails contribute large terms —
// the paper-scale convention.
func symKLHistogram(x0, x1 []float64, cfg Config) (float64, error) {
	lo0, hi0, err := stat.MinMax(x0)
	if err != nil {
		return 0, err
	}
	lo1, hi1, err := stat.MinMax(x1)
	if err != nil {
		return 0, err
	}
	lo, hi := math.Min(lo0, lo1), math.Max(hi0, hi1)
	if !(hi > lo) {
		return 0, nil // degenerate pooled sample: identical conditionals
	}
	h0, err := stat.NewHistogram(lo, hi, cfg.GridSize)
	if err != nil {
		return 0, err
	}
	h1, err := stat.NewHistogram(lo, hi, cfg.GridSize)
	if err != nil {
		return 0, err
	}
	for _, x := range x0 {
		h0.Add(x)
	}
	for _, x := range x1 {
		h1.Add(x)
	}
	p0, err := h0.PMF()
	if err != nil {
		return 0, err
	}
	p1, err := h1.PMF()
	if err != nil {
		return 0, err
	}
	return divergence.SymKLFloored(p0, p1, cfg.Floor)
}

// symKLKDE fits KDEs to both samples and evaluates them on a grid padded by
// the larger bandwidth.
func symKLKDE(x0, x1 []float64, cfg Config) (float64, error) {
	e0, err := kde.New(x0, cfg.Kernel, cfg.Bandwidth)
	if err != nil {
		return 0, err
	}
	e1, err := kde.New(x1, cfg.Kernel, cfg.Bandwidth)
	if err != nil {
		return 0, err
	}
	lo0, hi0, err := stat.MinMax(x0)
	if err != nil {
		return 0, err
	}
	lo1, hi1, err := stat.MinMax(x1)
	if err != nil {
		return 0, err
	}
	lo, hi := math.Min(lo0, lo1), math.Max(hi0, hi1)
	pad := cfg.PadBandwidths * math.Max(e0.Bandwidth(), e1.Bandwidth())
	lo, hi = lo-pad, hi+pad
	if !(hi > lo) {
		// Degenerate pooled sample (all values identical): the conditionals
		// coincide, so the dependence is zero by convention.
		return 0, nil
	}
	grid := stat.Linspace(lo, hi, cfg.GridSize)
	p0, err := e0.GridPMF(grid)
	if err != nil {
		return 0, err
	}
	p1, err := e1.GridPMF(grid)
	if err != nil {
		return 0, err
	}
	return divergence.SymKLFloored(p0, p1, cfg.Floor)
}

// EPerFeature is a convenience wrapper returning only the E_k vector.
func EPerFeature(t *dataset.Table, cfg Config) ([]float64, error) {
	res, err := Compute(t, cfg)
	if err != nil {
		return nil, err
	}
	return res.PerFeature, nil
}

// E is a convenience wrapper returning only the feature-aggregated metric.
func E(t *dataset.Table, cfg Config) (float64, error) {
	res, err := Compute(t, cfg)
	if err != nil {
		return 0, err
	}
	return res.Aggregate, nil
}

// MMDPerFeature evaluates a kernel-based alternative to E: the
// Pr[u]-weighted unbiased MMD² between the s|u-conditional samples of each
// feature (Gretton et al., the cross-covariance decoupling family the paper
// cites in Section II-A). Zero means the conditionals are indistinguishable
// to the RBF kernel; no density estimation or flooring is involved, so it
// cross-checks the KL-based estimators' conclusions.
func MMDPerFeature(t *dataset.Table, opts divergence.MMDOptions) ([]float64, error) {
	if t == nil || t.Len() == 0 {
		return nil, errors.New("fairmetrics: empty table")
	}
	nU := [2]int{}
	for _, r := range t.Records() {
		if r.S == dataset.SUnknown {
			continue
		}
		nU[r.U]++
	}
	total := nU[0] + nU[1]
	if total == 0 {
		return nil, errors.New("fairmetrics: no labelled records")
	}
	cols := t.GroupColumns()
	out := make([]float64, t.Dim())
	for k := 0; k < t.Dim(); k++ {
		for u := 0; u < 2; u++ {
			if nU[u] == 0 {
				continue
			}
			x0, x1 := cols[u][0][k], cols[u][1][k]
			if len(x0) < 2 || len(x1) < 2 {
				return nil, fmt.Errorf("fairmetrics: u=%d population too small for MMD (n0=%d, n1=%d)", u, len(x0), len(x1))
			}
			res, err := divergence.MMD(x0, x1, opts)
			if err != nil {
				return nil, fmt.Errorf("fairmetrics: u=%d feature %d: %w", u, k, err)
			}
			v := res.Squared
			if v < 0 {
				v = 0 // unbiased estimator noise on identical inputs
			}
			out[k] += float64(nU[u]) / float64(total) * v
		}
	}
	return out, nil
}

// Damage quantifies the information cost of a repair as the mean squared
// displacement between original and repaired feature vectors, the
// repair-vs-damage trade-off the paper defers to future work (Section VI).
// Tables must be aligned record-for-record.
func Damage(before, after *dataset.Table) (float64, error) {
	if before == nil || after == nil {
		return 0, errors.New("fairmetrics: nil table")
	}
	if before.Len() != after.Len() || before.Dim() != after.Dim() {
		return 0, fmt.Errorf("fairmetrics: shape mismatch %dx%d vs %dx%d",
			before.Len(), before.Dim(), after.Len(), after.Dim())
	}
	if before.Len() == 0 {
		return 0, nil
	}
	sum := 0.0
	for i := 0; i < before.Len(); i++ {
		a, b := before.At(i), after.At(i)
		for k := range a.X {
			d := a.X[k] - b.X[k]
			sum += d * d
		}
	}
	return sum / float64(before.Len()), nil
}
