package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"otfair/internal/dataset"
	"otfair/internal/kde"
	"otfair/internal/ot"
	"otfair/internal/stat"
)

// Cell is the designed repair state for one (u, feature) pair: the shared
// interpolated support Q_{u,k}, the two interpolated marginals p_{u,s,k},
// the barycentric target ν_{u,k}, and the two OT plans π*_{u,s,k}.
//
// A Cell is immutable once DesignCell, ReadPlan or a pooled re-design
// returns it, like the Plan that holds it: nothing writes its fields, the
// slices and plans they point to included, after construction. The design
// cache shares one *Cell between plans on that rule, and the plan encoder
// memoizes the cell's canonical JSON on it (see planEncoder.cell), so a
// write after an encode would serve stale bytes. Cells are passed by
// pointer, never copied by value (go vet's copylocks check flags a copy).
type Cell struct {
	// Q is the interpolated support (Algorithm 1 line 4), ascending.
	Q []float64
	// PMF[s] is the KDE-interpolated marginal of Eq. (11).
	PMF [2][]float64
	// Bary is the repair target ν on Q (Eq. 7 at t = Options.T, moved
	// Amount of the way from each marginal when partial repair is on; the
	// stored vector is the t-geodesic point both plans transport towards).
	Bary []float64
	// Target[s] is the per-s effective target (equals Bary when Amount=1).
	Target [2][]float64
	// Plans[s] is the OT plan from PMF[s] to Target[s].
	Plans [2]*ot.Plan
	// H[s] is the KDE bandwidth the marginal p_{u,s,k} was smoothed with;
	// kernel dithering at repair time reuses it.
	H [2]float64
	// Degenerate marks a support collapsed to a single point (constant
	// research feature); repair then maps everything to that point.
	Degenerate bool

	// encoded is set by the cell's first error-free encode; frag holds
	// its canonical JSON, stored by the second (planEncoder.cell).
	encoded atomic.Bool
	frag    atomic.Pointer[[]byte]
}

// Plan is the complete output of Algorithm 1: one Cell per (u, feature),
// plus the configuration needed to reproduce or serialize it.
//
// A Plan is immutable once Design, ReadPlan or a pooled re-design returns
// it: nothing writes its fields or its cells' after construction, and
// plans are passed by pointer, never copied by value (go vet's copylocks
// check flags a copy, through the fingerprint field). The serving layer
// shares one *Plan between the store, engines and calibrations on that
// rule, and Fingerprint memoizes on it.
type Plan struct {
	// Dim is the feature dimension d.
	Dim int
	// Names are the feature names carried over from the research table.
	Names []string
	// Cells is indexed [u][k].
	Cells [2][]*Cell
	// Opts records the design configuration.
	Opts Options
	// GroupSizes records the research group sizes n_{R,u,s} the plan was
	// designed from, for diagnostics and reports.
	GroupSizes map[dataset.Group]int

	// fingerprint is FingerprintBytes of the canonical bytes, stored by
	// the first MarshalCanonical and returned by Fingerprint after it, or
	// the id a store read the plan under (ReadStoredPlan); unchecked then
	// marks an id no encode has yet confirmed.
	fingerprint atomic.Pointer[string]
	unchecked   atomic.Bool
}

// Design implements Algorithm 1 over a research table: DesignColumns on
// the table's group columns.
func Design(research *dataset.Table, opts Options) (*Plan, error) {
	if research == nil {
		return nil, errors.New("core: empty research table")
	}
	return DesignColumns(&dataset.ResearchColumns{
		Names:   research.Names(),
		Records: research.Len(),
		Cols:    research.GroupColumns(),
	}, opts)
}

// DesignColumns implements Algorithm 1: for every u ∈ {0,1} and feature k
// it builds the interpolated support, estimates the two s-conditional
// pmfs by KDE, computes the W2 barycentric target, and solves the two OT
// plans. The research set must contain all four (u,s) groups.
func DesignColumns(research *dataset.ResearchColumns, opts Options) (*Plan, error) {
	if research == nil || research.Records == 0 {
		return nil, errors.New("core: empty research table")
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	dim, cols := len(research.Names), research.Cols
	plan := &Plan{
		Dim:        dim,
		Names:      append([]string(nil), research.Names...),
		Opts:       opts,
		GroupSizes: make(map[dataset.Group]int, 4),
	}
	for _, g := range dataset.Groups() {
		n := len(cols[g.U][g.S][0])
		if n == 0 {
			return nil, fmt.Errorf("core: research group %v is empty; Algorithm 1 needs labelled data in every (u,s) group", g)
		}
		plan.GroupSizes[g] = n
	}
	for u := 0; u < 2; u++ {
		plan.Cells[u] = make([]*Cell, dim)
		for k := 0; k < dim; k++ {
			cell, err := DesignCell(cols[u][0][k], cols[u][1][k], opts)
			if err != nil {
				return nil, fmt.Errorf("core: designing (u=%d, k=%d): %w", u, k, err)
			}
			plan.Cells[u][k] = cell
		}
	}
	return plan, nil
}

// DesignCell runs Algorithm 1 lines 3–11 for one conditioning cell given
// the two s-conditional research samples of a single feature directly. It
// is the primitive Design loops over; exposing it lets generalized
// conditioning schemes — e.g. the quantile-binned continuous-u pipeline of
// internal/contu — reuse the exact per-cell design. Options are defaulted
// and validated here so standalone callers get the same behaviour as
// Design.
func DesignCell(x0, x1 []float64, opts Options) (*Cell, error) {
	if len(x0) == 0 || len(x1) == 0 {
		return nil, fmt.Errorf("core: cell needs both s-samples (n0=%d, n1=%d)", len(x0), len(x1))
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	// Identical (samples, options) cells — discrete features across MC
	// replicates, repeated designs — share one immutable designed Cell.
	key := cellKeyFor(x0, x1, opts)
	if cell, ok := cellCacheGet(key); ok {
		return cell, nil
	}
	pooled := make([]float64, 0, len(x0)+len(x1))
	pooled = append(pooled, x0...)
	pooled = append(pooled, x1...)
	lo, hi, err := stat.MinMax(pooled)
	if err != nil {
		return nil, err
	}
	if !(hi > lo) {
		// Constant feature within this cell: single-state support.
		cell := degenerateCell(lo)
		cellCachePut(key, cell)
		return cell, nil
	}
	// Line 4–5: uniform interpolated support over the pooled range.
	q := stat.Linspace(lo, hi, opts.NQ)

	cell := &Cell{Q: q}
	// Line 8: interpolated marginals via KDE (Eq. 11).
	for s, sample := range [2][]float64{x0, x1} {
		est, err := kde.New(sample, opts.Kernel, opts.Bandwidth)
		if err != nil {
			return nil, fmt.Errorf("s=%d KDE: %w", s, err)
		}
		pmf, err := est.GridPMF(q)
		if err != nil {
			return nil, fmt.Errorf("s=%d interpolation: %w", s, err)
		}
		cell.PMF[s] = pmf
		cell.H[s] = est.Bandwidth()
	}
	// Line 9: the repair target ν — the t-barycenter (Eq. 7) by default, or
	// one of the Section VI alternative target families.
	bary, err := targetOnGrid(q, cell.PMF, opts)
	if err != nil {
		return nil, fmt.Errorf("target: %w", err)
	}
	cell.Bary = bary

	// Per-s effective target: partial repair moves each marginal only
	// Amount of the way towards ν along its own geodesic.
	for s := 0; s < 2; s++ {
		target := bary
		if opts.Amount < 1 {
			target, err = partialTarget(q, cell.PMF[s], bary, opts.Amount)
			if err != nil {
				return nil, fmt.Errorf("s=%d partial target: %w", s, err)
			}
		}
		cell.Target[s] = target
	}
	// Lines 10–11: OT plans from each marginal to its target (Eq. 13).
	// Both s-plans share one cell support, so the matrix solvers reuse a
	// single cost tabulation (content-cached across cells in ot).
	var cost *ot.CostMatrix
	if opts.Solver == SolverSimplex || opts.Solver == SolverSinkhorn {
		cost, err = ot.SquaredCostMatrix(q)
		if err != nil {
			return nil, err
		}
	}
	for s := 0; s < 2; s++ {
		p, err := solvePlan(q, cell.PMF[s], cell.Target[s], cost, opts)
		if err != nil {
			return nil, fmt.Errorf("s=%d plan: %w", s, err)
		}
		cell.Plans[s] = p
	}
	cellCachePut(key, cell)
	return cell, nil
}

func degenerateCell(point float64) *Cell {
	one := []float64{1}
	plan, err := ot.NewPlan(1, 1, []ot.Entry{{I: 0, J: 0, Mass: 1}})
	if err != nil {
		panic(err) // statically valid
	}
	return &Cell{
		Q:          []float64{point},
		PMF:        [2][]float64{one, one},
		Bary:       one,
		Target:     [2][]float64{one, one},
		Plans:      [2]*ot.Plan{plan, plan},
		Degenerate: true,
	}
}

// targetOnGrid builds the repair target ν on the support for the configured
// family.
func targetOnGrid(q []float64, pmfs [2][]float64, opts Options) ([]float64, error) {
	switch opts.Target {
	case TargetMixture:
		return mixtureTarget(q, pmfs, opts.T)
	case TargetGaussian:
		return gaussianTarget(q, pmfs, opts.T)
	default:
		return barycenterOnGrid(q, pmfs, opts)
	}
}

func barycenterOnGrid(q []float64, pmfs [2][]float64, opts Options) ([]float64, error) {
	lams := []float64{1 - opts.T, opts.T}
	in := [][]float64{pmfs[0], pmfs[1]}
	if opts.Barycenter == BarycenterBregman {
		return ot.BregmanBarycenter(q, in, lams, ot.BregmanOptions{})
	}
	return ot.GridBarycenter(q, in, lams)
}

// mixtureTarget is the vertical average ν = (1−t)·p0 + t·p1; a convex
// combination of pmfs is itself a pmf.
func mixtureTarget(q []float64, pmfs [2][]float64, t float64) ([]float64, error) {
	out := make([]float64, len(q))
	for i := range out {
		out[i] = (1-t)*pmfs[0][i] + t*pmfs[1][i]
	}
	return out, nil
}

// gaussianTarget discretizes N((1−t)·m0 + t·m1, ((1−t)·σ0 + t·σ1)²) on the
// support — the closed-form W2 barycenter of two Gaussians.
func gaussianTarget(q []float64, pmfs [2][]float64, t float64) ([]float64, error) {
	moments := func(p []float64) (mean, std float64) {
		for i, v := range p {
			mean += v * q[i]
		}
		m2 := 0.0
		for i, v := range p {
			d := q[i] - mean
			m2 += v * d * d
		}
		return mean, math.Sqrt(m2)
	}
	m0, s0 := moments(pmfs[0])
	m1, s1 := moments(pmfs[1])
	mean := (1-t)*m0 + t*m1
	std := (1-t)*s0 + t*s1
	out := make([]float64, len(q))
	if !(std > 0) {
		// Degenerate moments: all target mass at the grid point nearest the
		// blended mean.
		best, bestDist := 0, math.Inf(1)
		for i, g := range q {
			if d := math.Abs(g - mean); d < bestDist {
				best, bestDist = i, d
			}
		}
		out[best] = 1
		return out, nil
	}
	for i, g := range q {
		z := (g - mean) / std
		out[i] = math.Exp(-0.5 * z * z)
	}
	return stat.Normalize(out)
}

// partialTarget returns the point Amount of the way along the W2 geodesic
// from the s-marginal towards ν, projected back onto Q.
func partialTarget(q, pmf, bary []float64, amount float64) ([]float64, error) {
	if amount <= 0 {
		return append([]float64(nil), pmf...), nil
	}
	src, err := ot.OnGrid(q, pmf)
	if err != nil {
		return nil, err
	}
	dst, err := ot.OnGrid(q, bary)
	if err != nil {
		return nil, err
	}
	mid, err := ot.Geodesic(src, dst, amount)
	if err != nil {
		return nil, err
	}
	return ot.ProjectOntoGrid(mid, q)
}

// ConvergenceError reports a Sinkhorn plan whose iteration ran out before
// its marginal error fell below the tolerance. Such a plan is rounded onto
// the transport polytope but is not the entropic optimum, so the design
// fails instead of shipping it.
type ConvergenceError struct {
	// Iterations is the number of Sinkhorn sweeps performed.
	Iterations int
	// MarginalErr is the L1 marginal error at the last sweep.
	MarginalErr float64
	// Tol is the stopping tolerance the solve was held to.
	Tol float64
}

func (e *ConvergenceError) Error() string {
	return fmt.Sprintf("core: Sinkhorn did not converge: marginal error %.3g after %d iterations (tolerance %.3g); raise the epsilon",
		e.MarginalErr, e.Iterations, e.Tol)
}

// solvePlan runs the configured solver; cost is the cell's shared
// squared-Euclidean matrix over q (nil for the monotone solver, which
// needs none).
func solvePlan(q, source, target []float64, cost *ot.CostMatrix, opts Options) (*ot.Plan, error) {
	switch opts.Solver {
	case SolverMonotone:
		mu, err := ot.OnGrid(q, source)
		if err != nil {
			return nil, err
		}
		nu, err := ot.OnGrid(q, target)
		if err != nil {
			return nil, err
		}
		return ot.Monotone(mu, nu)
	case SolverSimplex:
		return ot.Simplex(source, target, cost)
	case SolverSinkhorn:
		res, err := ot.Sinkhorn(source, target, cost, ot.SinkhornOptions{Epsilon: opts.SinkhornEpsilon})
		if err != nil {
			return nil, err
		}
		if !res.Converged {
			return nil, &ConvergenceError{Iterations: res.Iterations, MarginalErr: res.MarginalErr, Tol: res.Tol}
		}
		return res.Plan, nil
	default:
		return nil, errors.New("core: unknown solver")
	}
}

// Cell returns the designed cell for (u, k); it panics on out-of-range
// indices, which indicate a caller bug rather than a data condition.
func (p *Plan) Cell(u, k int) *Cell {
	if u < 0 || u > 1 || k < 0 || k >= p.Dim {
		panic(fmt.Sprintf("core: cell (u=%d, k=%d) out of range (dim %d)", u, k, p.Dim))
	}
	return p.Cells[u][k]
}

// TransportCost reports Σ_s W2²(p_s, target_s) realized by the stored plans
// for one (u,k) cell — a diagnostic for how much work the repair does.
func (p *Plan) TransportCost(u, k int) float64 {
	cell := p.Cell(u, k)
	total := 0.0
	for s := 0; s < 2; s++ {
		total += cell.Plans[s].Cost(func(i, j int) float64 {
			return ot.SquaredEuclidean(cell.Q[i], cell.Q[j])
		})
	}
	return total
}
