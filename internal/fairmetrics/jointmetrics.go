package fairmetrics

import (
	"errors"
	"fmt"
	"math"

	"otfair/internal/dataset"
	"otfair/internal/divergence"
	"otfair/internal/kde"
	"otfair/internal/stat"
)

// JointConfig controls the joint (multivariate) dependence metric.
type JointConfig struct {
	// GridSize is the number of evaluation points per dimension (default 32;
	// the product grid has GridSize^d states).
	GridSize int
	// Floor is the probability floor before log-ratios (default
	// divergence.DefaultFloor).
	Floor float64
	// Kernel and Bandwidth configure the multivariate KDE (defaults:
	// Gaussian, Silverman).
	Kernel    kde.Kernel
	Bandwidth kde.Bandwidth
	// PadBandwidths extends the grid beyond the pooled range by this many
	// bandwidths per dimension (default 1).
	PadBandwidths float64
}

func (c JointConfig) withDefaults() JointConfig {
	if c.GridSize <= 0 {
		c.GridSize = 32
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

// EJoint is the multivariate counterpart of E (Definition 2.4 without the
// feature stratification): the Pr[u]-weighted symmetrized KL between the
// full d-dimensional s|u-conditional densities, estimated by product-kernel
// KDE on a shared product grid. Dependence that lives purely in the
// correlation structure — invisible to the per-feature E — shows up here;
// the joint-repair ablation (X8) relies on exactly that.
func EJoint(t *dataset.Table, cfg JointConfig) (float64, error) {
	if t == nil || t.Len() == 0 {
		return 0, errors.New("fairmetrics: empty table")
	}
	cfg = cfg.withDefaults()

	nU := [2]int{}
	for _, r := range t.Records() {
		if r.S == dataset.SUnknown {
			continue
		}
		nU[r.U]++
	}
	total := nU[0] + nU[1]
	if total == 0 {
		return 0, errors.New("fairmetrics: no labelled records")
	}

	e := 0.0
	for u := 0; u < 2; u++ {
		if nU[u] == 0 {
			continue
		}
		rows := [2][][]float64{}
		for _, rec := range t.Records() {
			if rec.U != u || rec.S == dataset.SUnknown {
				continue
			}
			rows[rec.S] = append(rows[rec.S], rec.X)
		}
		if len(rows[0]) == 0 || len(rows[1]) == 0 {
			return 0, fmt.Errorf("fairmetrics: u=%d population lacks an s-class (n0=%d, n1=%d)", u, len(rows[0]), len(rows[1]))
		}
		eu, err := jointSymKL(rows[0], rows[1], t.Dim(), cfg)
		if err != nil {
			return 0, fmt.Errorf("fairmetrics: u=%d: %w", u, err)
		}
		e += float64(nU[u]) / float64(total) * eu
	}
	return e, nil
}

// jointSymKL estimates the symmetrized KL between two d-dimensional samples
// via product-kernel KDEs tabulated on a shared product grid.
func jointSymKL(x0, x1 [][]float64, dim int, cfg JointConfig) (float64, error) {
	e0, err := kde.NewMulti(x0, cfg.Kernel, cfg.Bandwidth)
	if err != nil {
		return 0, err
	}
	e1, err := kde.NewMulti(x1, cfg.Kernel, cfg.Bandwidth)
	if err != nil {
		return 0, err
	}
	h0, h1 := e0.Bandwidths(), e1.Bandwidths()
	grids := make([][]float64, dim)
	for k := 0; k < dim; k++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, rows := range [][][]float64{x0, x1} {
			for _, row := range rows {
				if row[k] < lo {
					lo = row[k]
				}
				if row[k] > hi {
					hi = row[k]
				}
			}
		}
		pad := cfg.PadBandwidths * math.Max(h0[k], h1[k])
		if !(hi > lo) {
			// Degenerate axis: a single shared state contributes nothing.
			grids[k] = []float64{lo}
			continue
		}
		grids[k] = stat.Linspace(lo-pad, hi+pad, cfg.GridSize)
	}
	p0, err := e0.GridPMF(grids)
	if err != nil {
		return 0, err
	}
	p1, err := e1.GridPMF(grids)
	if err != nil {
		return 0, err
	}
	return divergence.SymKLFloored(p0, p1, cfg.Floor)
}

// CorrelationGap measures the s-dependence that lives in the pairwise
// correlation structure: the Pr[u]-weighted mean over u and feature pairs
// (j < k) of |ρ_{u,s=0}(j,k) − ρ_{u,s=1}(j,k)|. It is zero when both
// s-conditionals share their correlation matrices — a necessary condition
// for the conditional independence of Definition 2.1 that the per-feature E
// cannot detect.
func CorrelationGap(t *dataset.Table) (float64, error) {
	if t == nil || t.Len() == 0 {
		return 0, errors.New("fairmetrics: empty table")
	}
	if t.Dim() < 2 {
		return 0, errors.New("fairmetrics: correlation gap needs at least two features")
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
		return 0, errors.New("fairmetrics: no labelled records")
	}
	pairs := t.Dim() * (t.Dim() - 1) / 2
	cols := t.GroupColumns()
	gap := 0.0
	for u := 0; u < 2; u++ {
		if nU[u] == 0 {
			continue
		}
		sum := 0.0
		for j := 0; j < t.Dim(); j++ {
			for k := j + 1; k < t.Dim(); k++ {
				r0 := stat.Correlation(cols[u][0][j], cols[u][0][k])
				r1 := stat.Correlation(cols[u][1][j], cols[u][1][k])
				if math.IsNaN(r0) || math.IsNaN(r1) {
					return 0, fmt.Errorf("fairmetrics: degenerate correlation in u=%d pair (%d,%d)", u, j, k)
				}
				sum += math.Abs(r0 - r1)
			}
		}
		gap += float64(nU[u]) / float64(total) * sum / float64(pairs)
	}
	return gap, nil
}

// CorrelationDamage measures how much a repair distorted the dependence
// structure: the mean over (u,s) groups and feature pairs of
// |ρ_before(j,k) − ρ_after(j,k)|. Low values mean the repair preserved the
// copula; the per-feature repair's independent redraws inflate it.
func CorrelationDamage(before, after *dataset.Table) (float64, error) {
	if before == nil || after == nil {
		return 0, errors.New("fairmetrics: nil table")
	}
	if before.Len() != after.Len() || before.Dim() != after.Dim() {
		return 0, fmt.Errorf("fairmetrics: shape mismatch %d×%d vs %d×%d",
			before.Len(), before.Dim(), after.Len(), after.Dim())
	}
	if before.Dim() < 2 {
		return 0, errors.New("fairmetrics: correlation damage needs at least two features")
	}
	pairs := before.Dim() * (before.Dim() - 1) / 2
	bcols, acols := before.GroupColumns(), after.GroupColumns()
	sum, groups := 0.0, 0
	for _, g := range dataset.Groups() {
		b, a := bcols[g.U][g.S], acols[g.U][g.S]
		if len(b[0]) < 3 {
			continue
		}
		groups++
		for j := 0; j < before.Dim(); j++ {
			for k := j + 1; k < before.Dim(); k++ {
				rb := stat.Correlation(b[j], b[k])
				ra := stat.Correlation(a[j], a[k])
				if math.IsNaN(rb) || math.IsNaN(ra) {
					continue // constant column in this group: no dependence to damage
				}
				sum += math.Abs(rb-ra) / float64(pairs)
			}
		}
	}
	if groups == 0 {
		return 0, errors.New("fairmetrics: no group large enough for correlations")
	}
	return sum / float64(groups), nil
}
