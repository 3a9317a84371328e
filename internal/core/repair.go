package core

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"otfair/internal/dataset"
	"otfair/internal/kde"
	"otfair/internal/rng"
)

// RepairOptions configures Algorithm 2.
type RepairOptions struct {
	// Jitter adds a uniform within-cell perturbation to each repaired value
	// so the output is not quantized to the grid (an extension beyond the
	// paper, off by default; see DESIGN.md ablations).
	Jitter bool
	// KernelDither perturbs each incoming value by h_{u,s,k}·K before
	// grid-snapping, where K is the design kernel and h the bandwidth the
	// marginal was smoothed with (Eq. 11). This makes an atomic or
	// integer-valued deployment sample distributionally consistent with
	// the smoothed pmf its plan was designed for; without it, point masses
	// (e.g. Adult's 40-hours atom) pass through only two plan rows and are
	// displaced differently per s-group. The paper defers non-continuous
	// features to future work (Section VI); this is the repository's
	// answer, off by default to keep Algorithm 2 faithful.
	KernelDither bool
}

// Diagnostics counts the boundary conditions Algorithm 2 encounters.
// The paper assumes archival points fall inside the research range
// (Section IV-B); Clamped counts how often that assumption failed.
type Diagnostics struct {
	// Repaired is the number of feature values repaired.
	Repaired int64
	// Clamped counts archival values outside the support range [Q₁, Q_nQ].
	Clamped int64
	// EmptyRowFallbacks counts draws that landed on a zero-mass plan row
	// and fell back to the nearest row carrying mass.
	EmptyRowFallbacks int64
}

// Merge folds another counter set into d; the parallel and serving paths
// aggregate per-shard diagnostics with it.
func (d *Diagnostics) Merge(o Diagnostics) {
	d.Repaired += o.Repaired
	d.Clamped += o.Clamped
	d.EmptyRowFallbacks += o.EmptyRowFallbacks
}

// Repairer applies a designed Plan to off-sample data (Algorithm 2).
// A Repairer is not safe for concurrent use: it owns an RNG stream. Create
// one per goroutine with independent rng.RNG splits; they can all share one
// PlanSampler (see NewRepairerShared).
type Repairer struct {
	plan    *Plan
	sampler *PlanSampler
	rng     *rng.RNG
	opts    RepairOptions
	diag    Diagnostics
}

// NewRepairer binds a plan to a randomness source, precomputing the plan's
// alias draw tables. When creating many repairers over one plan (parallel
// shards, serving fleets), build the PlanSampler once and use
// NewRepairerShared instead.
func NewRepairer(plan *Plan, r *rng.RNG, opts RepairOptions) (*Repairer, error) {
	if plan == nil {
		return nil, errors.New("core: nil plan")
	}
	sampler, err := NewPlanSampler(plan)
	if err != nil {
		return nil, err
	}
	return NewRepairerShared(sampler, r, opts)
}

// NewRepairerShared binds a precomputed (shared, immutable) PlanSampler to
// a randomness source. The draw stream is identical to NewRepairer's for
// the same RNG, so outputs are byte-identical across the two constructors.
func NewRepairerShared(sampler *PlanSampler, r *rng.RNG, opts RepairOptions) (*Repairer, error) {
	if sampler == nil {
		return nil, errors.New("core: nil sampler")
	}
	if r == nil {
		return nil, errors.New("core: nil rng")
	}
	return &Repairer{plan: sampler.plan, sampler: sampler, rng: r, opts: opts}, nil
}

// Diagnostics returns the counters accumulated so far.
func (rp *Repairer) Diagnostics() Diagnostics { return rp.diag }

// Plan exposes the underlying design.
func (rp *Repairer) Plan() *Plan { return rp.plan }

// RepairValue repairs a single feature value for group (u, s), feature k —
// Algorithm 2 lines 5–9.
func (rp *Repairer) RepairValue(u, s, k int, x float64) (float64, error) {
	if s != 0 && s != 1 {
		return 0, fmt.Errorf("core: repair requires a binary s label, got %d", s)
	}
	if u != 0 && u != 1 {
		return 0, fmt.Errorf("core: invalid u label %d", u)
	}
	if k < 0 || k >= rp.plan.Dim {
		return 0, fmt.Errorf("core: feature %d out of range %d", k, rp.plan.Dim)
	}
	cell := rp.plan.Cells[u][k]
	rp.diag.Repaired++
	if cell.Degenerate {
		return cell.Q[0], nil
	}
	if rp.opts.KernelDither && cell.H[s] > 0 {
		x += cell.H[s] * kde.Sample(rp.plan.Opts.Kernel, rp.rng)
	}
	q := rp.snapToGrid(cell, x)
	j := rp.drawTarget(u, s, k, q)
	out := cell.Q[j]
	if rp.opts.Jitter {
		out = rp.jitter(cell, j, out)
	}
	return out, nil
}

// snapToGrid implements lines 5–8: locate the round-down state, then
// randomize between the two neighbours with the interpolation ratio τ
// (Eq. 14) as the Bernoulli probability.
func (rp *Repairer) snapToGrid(cell *Cell, x float64) int {
	grid := cell.Q
	n := len(grid)
	switch {
	case x <= grid[0]:
		if x < grid[0] {
			rp.diag.Clamped++
		}
		return 0
	case x >= grid[n-1]:
		if x > grid[n-1] {
			rp.diag.Clamped++
		}
		return n - 1
	}
	// Largest q with grid[q] <= x.
	q := sort.SearchFloat64s(grid, x)
	if q == n || grid[q] > x {
		q--
	}
	if grid[q] == x {
		return q
	}
	tau := (x - grid[q]) / (grid[q+1] - grid[q])
	if rp.rng.Bernoulli(tau) {
		q++
	}
	return q
}

// drawTarget implements line 9: draw the repaired state from the
// multinomial given by normalized row q of π*_s (Eq. 15). Zero-mass rows
// (supports cells where the research KDE carried no mass) were resolved to
// the nearest row with mass when the sampler was built; draws through them
// are counted in diagnostics.
func (rp *Repairer) drawTarget(u, s, k, q int) int {
	row := rp.sampler.row(u, s, k, q)
	if row.fallback {
		rp.diag.EmptyRowFallbacks++
	}
	return row.targets[row.table.Draw(rp.rng)]
}

// jitter spreads a repaired value uniformly within its grid cell, clamped
// to the support range.
func (rp *Repairer) jitter(cell *Cell, j int, x float64) float64 {
	grid := cell.Q
	n := len(grid)
	var lo, hi float64
	switch {
	case j == 0:
		lo, hi = grid[0], grid[0]+(grid[1]-grid[0])/2
	case j == n-1:
		lo, hi = grid[n-1]-(grid[n-1]-grid[n-2])/2, grid[n-1]
	default:
		lo = grid[j] - (grid[j]-grid[j-1])/2
		hi = grid[j] + (grid[j+1]-grid[j])/2
	}
	return rp.rng.Uniform(lo, hi)
}

// RepairRecord repairs every feature of one labelled record, returning a
// new record (the input is not mutated). Records with unknown S are
// rejected: estimate labels first (internal/mixture) or drop the record.
func (rp *Repairer) RepairRecord(rec dataset.Record) (dataset.Record, error) {
	if rec.S == dataset.SUnknown {
		return dataset.Record{}, errors.New("core: record has no s label; Algorithm 2 requires s (estimate it first)")
	}
	out := dataset.Record{X: make([]float64, len(rec.X)), S: rec.S, U: rec.U}
	for k := range rec.X {
		v, err := rp.RepairValue(rec.U, rec.S, k, rec.X[k])
		if err != nil {
			return dataset.Record{}, err
		}
		out.X[k] = v
	}
	return out, nil
}

// RepairTable repairs every record of a table in order, returning a new
// table with identical labels — cardinality preservation is structural.
func (rp *Repairer) RepairTable(t *dataset.Table) (*dataset.Table, error) {
	if t == nil {
		return nil, errors.New("core: nil table")
	}
	if t.Dim() != rp.plan.Dim {
		return nil, fmt.Errorf("core: table dimension %d does not match plan %d", t.Dim(), rp.plan.Dim)
	}
	out, err := dataset.NewTable(t.Dim(), t.Names())
	if err != nil {
		return nil, err
	}
	for i := 0; i < t.Len(); i++ {
		rec, err := rp.RepairRecord(t.At(i))
		if err != nil {
			return nil, fmt.Errorf("core: record %d: %w", i, err)
		}
		if err := out.Append(rec); err != nil {
			return nil, fmt.Errorf("core: record %d: %w", i, err)
		}
	}
	return out, nil
}

// RepairStream consumes a record stream and emits repaired records to sink,
// one at a time with O(1) memory — the archival-torrent deployment mode.
// It stops at the first error; io.EOF from the stream ends it successfully
// and the number of repaired records is returned.
func (rp *Repairer) RepairStream(in dataset.Stream, sink func(dataset.Record) error) (int, error) {
	if in.Dim() != rp.plan.Dim {
		return 0, fmt.Errorf("core: stream dimension %d does not match plan %d", in.Dim(), rp.plan.Dim)
	}
	n := 0
	for {
		rec, err := in.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		repaired, err := rp.RepairRecord(rec)
		if err != nil {
			return n, fmt.Errorf("core: stream record %d: %w", n, err)
		}
		if err := sink(repaired); err != nil {
			return n, err
		}
		n++
	}
}
