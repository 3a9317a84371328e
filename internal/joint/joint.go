// Package joint implements the multivariate (non-feature-stratified)
// variant of the paper's distributional repair. Algorithm 1 stratifies by
// feature to dodge the curse of dimensionality, "at the cost of neglecting
// the intra-feature correlation structure in the x_{u,s}" (Section VI). This
// package builds the joint repair that stratification avoids, so the
// trade-off can be measured instead of assumed:
//
//   - the support is the product grid Q_{u,1} × … × Q_{u,d} (n_Q^d states);
//   - the s|u-conditional joint pmfs come from a product-kernel multivariate
//     KDE (internal/kde.MultiEstimator);
//   - the fair target ν_u is the entropically regularized W₂ barycenter on
//     that support (iterative Bregman projections, Benamou et al. 2015);
//   - the plans π*_{u,s} are Sinkhorn plans from each joint marginal to ν_u;
//   - Algorithm 2's snap-and-draw randomization generalizes coordinate-wise:
//     a per-dimension Bernoulli grid snap followed by one categorical draw
//     from the plan row over all n_Q^d target states.
//
// Whole records move as units, so whatever dependence the barycenter
// carries is reproduced in the repaired output — the per-feature repair, by
// contrast, redraws each coordinate independently and can only preserve
// dependence up to its comonotone component. The cost is exponential in d:
// the product support has n_Q^d states and the plans n_Q^{2d} entries.
// Options.MaxStates guards against accidental blow-ups; the per-feature
// core package remains the deployment default, exactly as the paper argues.
package joint

import (
	"errors"
	"fmt"
	"math"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/kde"
	"otfair/internal/ot"
	"otfair/internal/stat"
)

// Options configures the joint design.
type Options struct {
	// NQ is the number of support states per dimension (default 20; the
	// product support then has NQ^d states).
	NQ int
	// T places the target on the W2 geodesic (default 0.5, the fair
	// barycenter).
	T float64
	// Kernel and Bandwidth configure the multivariate KDE (defaults:
	// Gaussian, Silverman — the paper's choices, at the d-dimensional rate).
	Kernel    kde.Kernel
	Bandwidth kde.Bandwidth
	// Epsilon is the entropic regularization shared by the barycenter and
	// the Sinkhorn plans (0 = scale-aware default).
	Epsilon float64
	// MaxStates caps the product-support size per u (default 65536).
	// Designs that would exceed it fail fast with a sizing error instead of
	// exhausting memory. The separable design stores only the Kronecker
	// factors (Σ_k n_k² kernel entries) and O(n) vectors per cell, so the
	// cap guards vector memory, not n²-entry dense objects.
	MaxStates int
}

func (o Options) withDefaults() Options {
	if o.NQ == 0 {
		o.NQ = 20
	}
	if o.T == 0 {
		o.T = 0.5
	}
	if o.MaxStates == 0 {
		o.MaxStates = 65536
	}
	return o
}

func (o Options) validate() error {
	if o.NQ < 2 {
		return fmt.Errorf("joint: NQ must be at least 2, got %d", o.NQ)
	}
	// NaN compares false against both range bounds, so it must be rejected
	// explicitly before it reaches the solvers.
	if math.IsNaN(o.T) || o.T <= 0 || o.T >= 1 {
		return fmt.Errorf("joint: geodesic parameter T = %v outside (0,1)", o.T)
	}
	if math.IsNaN(o.Epsilon) || math.IsInf(o.Epsilon, 0) || o.Epsilon < 0 {
		return fmt.Errorf("joint: invalid epsilon %v", o.Epsilon)
	}
	return nil
}

// Cell is the designed joint repair state for one u-population.
type Cell struct {
	// Grids[k] is the per-dimension support (ascending, uniform).
	Grids [][]float64
	// Points is the flattened product support, row-major over Grids; each
	// entry is one d-dimensional state.
	Points [][]float64
	// PMF[s] is the joint KDE-interpolated marginal on Points.
	PMF [2][]float64
	// Bary is the entropic W2 barycenter on Points — the fair target ν_u.
	Bary []float64
	// Plans[s] is the Sinkhorn plan from PMF[s] to Bary: a lazily-rowed
	// *ot.FactoredPlan as designed, or a materialized *ot.Plan when read
	// from an entry-list document.
	Plans [2]ot.RowPlan
}

// Plan is the complete joint design: one Cell per u.
type Plan struct {
	// Dim is the feature dimension d.
	Dim int
	// Names are the feature names carried from the research table.
	Names []string
	// Cells is indexed by u.
	Cells [2]*Cell
	// Opts records the design configuration.
	Opts Options
}

// Design learns the joint repair from an s|u-labelled research table: per
// u-population it builds the product support, estimates both s-conditional
// joint pmfs, computes the entropic barycenter and solves the two Sinkhorn
// plans. All four (u,s) research groups must be non-empty.
func Design(research *dataset.Table, opts Options) (*Plan, error) {
	return design(research, opts, separableCell)
}

// design runs Design with finish completing each cell's barycenter and
// plans from its support and pmfs.
func design(research *dataset.Table, opts Options, finish func(*Cell, Options) (*Cell, error)) (*Plan, error) {
	if research == nil || research.Len() == 0 {
		return nil, errors.New("joint: empty research table")
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	counts := research.Counts()
	for _, g := range dataset.Groups() {
		if counts[g] == 0 {
			return nil, fmt.Errorf("joint: research group %v is empty", g)
		}
	}
	plan := &Plan{
		Dim:   research.Dim(),
		Names: append([]string(nil), research.Names()...),
		Opts:  opts,
	}
	for u := 0; u < 2; u++ {
		cell, err := supportCell(research, u, opts)
		if err == nil {
			cell, err = finish(cell, opts)
		}
		if err != nil {
			return nil, fmt.Errorf("joint: designing u=%d: %w", u, err)
		}
		plan.Cells[u] = cell
	}
	return plan, nil
}

// supportCell builds a cell's product support and both s-conditional
// joint pmfs on it.
func supportCell(research *dataset.Table, u int, opts Options) (*Cell, error) {
	d := research.Dim()
	cell := &Cell{Grids: make([][]float64, d)}
	states := 1
	for k := 0; k < d; k++ {
		pooled := research.UColumn(u, k)
		lo, hi, err := stat.MinMax(pooled)
		if err != nil {
			return nil, err
		}
		if hi > lo {
			cell.Grids[k] = stat.Linspace(lo, hi, opts.NQ)
		} else {
			// Constant dimension: a single-state axis.
			cell.Grids[k] = []float64{lo}
		}
		states *= len(cell.Grids[k])
	}
	if states > opts.MaxStates {
		return nil, fmt.Errorf("joint: product support has %d states (> MaxStates %d); lower NQ or use the per-feature repair",
			states, opts.MaxStates)
	}
	cell.Points = productPoints(cell.Grids)

	for s := 0; s < 2; s++ {
		var rows [][]float64
		for _, rec := range research.Records() {
			if rec.U == u && rec.S == s {
				rows = append(rows, rec.X)
			}
		}
		est, err := kde.NewMulti(rows, opts.Kernel, opts.Bandwidth)
		if err != nil {
			return nil, fmt.Errorf("s=%d KDE: %w", s, err)
		}
		pmf, err := est.GridPMF(cell.Grids)
		if err != nil {
			return nil, fmt.Errorf("s=%d interpolation: %w", s, err)
		}
		cell.PMF[s] = pmf
	}

	return cell, nil
}

// separableCell finishes a cell on the Kronecker-factored path: on the
// product grid the squared-Euclidean Gibbs kernel is K₁ ⊗ … ⊗ K_d, so the
// barycenter and both plans run through axis contractions costing
// O(n·Σ_k n_k) per application — never materializing a cost matrix, a
// dense kernel, or a dense plan. The scale-aware ε default uses the exact
// maximum product cost Σ_k (hi_k − lo_k)², the corner-to-corner value of
// the dense cost matrix.
func separableCell(cell *Cell, opts Options) (*Cell, error) {
	maxC := 0.0
	for _, g := range cell.Grids {
		r := g[len(g)-1] - g[0]
		maxC += r * r
	}
	eps := opts.Epsilon
	if eps <= 0 {
		eps = 5e-3 * (1 + maxC)
	}
	op, err := ot.NewSeparableGibbs(cell.Grids, eps)
	if err != nil {
		return nil, err
	}

	bary, err := ot.BregmanBarycenterOp(op,
		[][]float64{cell.PMF[0], cell.PMF[1]},
		[]float64{1 - opts.T, opts.T},
		ot.BregmanOptions{})
	if err != nil {
		return nil, fmt.Errorf("barycenter: %w", err)
	}
	cell.Bary = bary

	for s := 0; s < 2; s++ {
		res, err := ot.SinkhornOp(cell.PMF[s], bary, op, ot.SinkhornOptions{})
		if err != nil {
			return nil, fmt.Errorf("s=%d plan: %w", s, err)
		}
		if !res.Converged {
			return nil, fmt.Errorf("s=%d plan: %w", s, &core.ConvergenceError{Iterations: res.Iterations, MarginalErr: res.MarginalErr, Tol: res.Tol})
		}
		cell.Plans[s] = res.Plan
	}
	return cell, nil
}

// productPoints expands per-dimension grids into the row-major flattened
// product support.
func productPoints(grids [][]float64) [][]float64 {
	d := len(grids)
	total := 1
	for _, g := range grids {
		total *= len(g)
	}
	points := make([][]float64, total)
	idx := make([]int, d)
	for flat := 0; flat < total; flat++ {
		p := make([]float64, d)
		for k := 0; k < d; k++ {
			p[k] = grids[k][idx[k]]
		}
		points[flat] = p
		for k := d - 1; k >= 0; k-- {
			idx[k]++
			if idx[k] < len(grids[k]) {
				break
			}
			idx[k] = 0
		}
	}
	return points
}

// flatIndex converts a per-dimension multi-index to the row-major flat state.
func flatIndex(grids [][]float64, idx []int) int {
	flat := 0
	for k := range grids {
		flat = flat*len(grids[k]) + idx[k]
	}
	return flat
}
