package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"otfair/internal/dataset"
	"otfair/internal/kde"
	"otfair/internal/rng"
	"otfair/internal/stat"
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
//
// Every repair runs in two steps. Pick walks the values in input order and
// makes all of their RNG calls — dither, the τ-Bernoulli snap, the alias
// slot index and its uniform, the jitter uniform — queueing each value's
// slot and uniforms; Resolve then turns a whole block of queued draws into
// values in one tight loop. No RNG call depends on a slot's contents, so
// the split leaves the stream and the output exactly as a value-by-value
// draw would, while the block's slot loads — cache misses into a dense
// plan's tables — overlap instead of queueing one behind the other.
type Repairer struct {
	plan    *Plan
	sampler *PlanSampler
	rng     *rng.RNG
	opts    RepairOptions
	diag    Diagnostics
	// picks queues the draws made since the last Resolve.
	picks []pick
}

// pick is one value's draw after its RNG calls: the slot it landed on and
// the cell it repairs in (PlanSampler indices), the uniform compared with
// the slot's probability, and the jitter uniform (0 when jitter is off).
type pick struct {
	u, ju      float64
	slot, cell int32
}

// repairBlock bounds how many records a table repair picks before it
// resolves them, so the pick queue stays cache-sized.
const repairBlock = 1024

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
// Algorithm 2 lines 5–9 — as a one-value Pick and Resolve.
func (rp *Repairer) RepairValue(u, s, k int, x float64) (float64, error) {
	if err := rp.Pick(u, s, k, x); err != nil {
		return 0, err
	}
	var v [1]float64
	rp.Resolve(v[:])
	return v[0], nil
}

// Pick validates one feature value for group (u, s), feature k, makes
// every RNG call of its repair (Algorithm 2 lines 5–9, plus dither and
// jitter when enabled) and queues the draw for Resolve. The diagnostics
// count the value at once. A value that fails validation makes no RNG
// call and queues nothing.
func (rp *Repairer) Pick(u, s, k int, x float64) error {
	if s != 0 && s != 1 {
		return fmt.Errorf("core: repair requires a binary s label, got %d", s)
	}
	if u != 0 && u != 1 {
		return fmt.Errorf("core: invalid u label %d", u)
	}
	if k < 0 || k >= rp.plan.Dim {
		return fmt.Errorf("core: feature %d out of range %d", k, rp.plan.Dim)
	}
	if math.IsNaN(x) {
		return fmt.Errorf("core: feature %d value is NaN", k)
	}
	c := u*rp.plan.Dim + k
	cell := rp.sampler.cells[c]
	rp.diag.Repaired++
	if cell.Degenerate {
		rp.picks = append(rp.picks, pick{slot: degenerateSlot, cell: int32(c)})
		return nil
	}
	if rp.opts.KernelDither && cell.H[s] > 0 {
		x += cell.H[s] * kde.Sample(rp.plan.Opts.Kernel, rp.rng)
	}
	q, clamped := SnapToGrid(cell.Q, x, rp.rng)
	if clamped {
		rp.diag.Clamped++
	}
	row := rp.sampler.rows[c][s][q]
	if row.fallback {
		rp.diag.EmptyRowFallbacks++
	}
	// Line 9: draw the repaired state from the multinomial given by the
	// normalized plan row (Eq. 15) — here only the slot and its uniform.
	p := pick{cell: int32(c)}
	p.slot = row.off + int32(rp.rng.IntN(int(row.n)))
	p.u = rp.rng.Float64()
	if rp.opts.Jitter {
		p.ju = rp.rng.Float64()
	}
	rp.picks = append(rp.picks, p)
	return nil
}

// Reserve makes room in the queue for n more draws, so a caller about to
// pick a block of known size does not regrow the queue as it goes.
func (rp *Repairer) Reserve(n int) { rp.picks = slices.Grow(rp.picks, n) }

// Resolve writes the first len(dst) queued draws, in pick order, into dst
// and empties the queue; draws beyond len(dst) are dropped, which is how a
// caller discards the draws of a record that failed part way.
func (rp *Repairer) Resolve(dst []float64) {
	if len(dst) > len(rp.picks) {
		panic("core: Resolve past the queued draws")
	}
	picks := rp.picks[:len(dst)]
	slots, cells := rp.sampler.slots, rp.sampler.cells
	if rp.opts.Jitter {
		for i := range picks {
			p := &picks[i]
			cell := cells[p.cell]
			j := int(slots[p.slot].Resolve(p.u))
			if cell.Degenerate {
				dst[i] = cell.Q[j]
				continue
			}
			dst[i] = jitter(cell.Q, j, p.ju)
		}
	} else {
		for i := range picks {
			p := &picks[i]
			dst[i] = cells[p.cell].Q[slots[p.slot].Resolve(p.u)]
		}
	}
	rp.picks = rp.picks[:0]
}

// SnapToGrid implements Algorithm 2 lines 5–8 on one sorted support axis:
// locate the round-down state, then randomize between the two neighbours
// with the interpolation ratio τ (Eq. 14) as the Bernoulli probability,
// drawn from r. A value outside the grid snaps to the nearer end and
// reports clamped; one on a grid point, or at an end, makes no RNG call.
// x must not be NaN: callers reject it first.
func SnapToGrid(grid []float64, x float64, r *rng.RNG) (q int, clamped bool) {
	n := len(grid)
	switch {
	case x <= grid[0]:
		return 0, x < grid[0]
	case x >= grid[n-1]:
		return n - 1, x > grid[n-1]
	}
	// Largest q with grid[q] <= x.
	q = stat.SearchGrid(grid, x)
	if q == n || grid[q] > x {
		q--
	}
	if grid[q] == x {
		return q, false
	}
	tau := (x - grid[q]) / (grid[q+1] - grid[q])
	if r.Bernoulli(tau) {
		q++
	}
	return q, false
}

// jitter spreads the repaired state j uniformly within its grid cell,
// clamped to the support range, with the uniform u drawn at pick time
// (rng.Uniform's arithmetic).
func jitter(grid []float64, j int, u float64) float64 {
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
	return lo + (hi-lo)*u
}

// RepairRecord repairs every feature of one labelled record, returning a
// new record (the input is not mutated). Records with unknown S are
// rejected: repair them with internal/blind, which labels each record from
// the research-fitted QDA posterior, or drop the record.
func (rp *Repairer) RepairRecord(rec dataset.Record) (dataset.Record, error) {
	out := dataset.Record{X: make([]float64, len(rec.X)), S: rec.S, U: rec.U}
	if err := rp.pickRecord(rec); err != nil {
		rp.Resolve(nil)
		return dataset.Record{}, err
	}
	rp.Resolve(out.X)
	return out, nil
}

// pickRecord picks every feature of one labelled record. On failure the
// record may have queued some of its draws; the caller drops them.
func (rp *Repairer) pickRecord(rec dataset.Record) error {
	if rec.S == dataset.SUnknown {
		return errors.New("core: record has no s label; Algorithm 2 requires s (estimate it first)")
	}
	for k, x := range rec.X {
		if err := rp.Pick(rec.U, rec.S, k, x); err != nil {
			return err
		}
	}
	return nil
}

// RepairTable repairs every record of a table in order, returning a new
// table with identical labels — cardinality preservation is structural.
// It picks repairBlock records at a time and carves every output feature
// vector from one backing allocation.
func (rp *Repairer) RepairTable(t *dataset.Table) (*dataset.Table, error) {
	if t == nil {
		return nil, errors.New("core: nil table")
	}
	d := rp.plan.Dim
	if t.Dim() != d {
		return nil, fmt.Errorf("core: table dimension %d does not match plan %d", t.Dim(), d)
	}
	out, err := dataset.NewTable(d, t.Names())
	if err != nil {
		return nil, err
	}
	recs := t.Records()
	repaired := make([]dataset.Record, len(recs))
	xs := make([]float64, len(recs)*d)
	for lo := 0; lo < len(recs); lo += repairBlock {
		hi := min(lo+repairBlock, len(recs))
		rp.Reserve((hi - lo) * d)
		for i := lo; i < hi; i++ {
			rec := recs[i]
			if err := rp.pickRecord(rec); err != nil {
				rp.Resolve(nil)
				return nil, fmt.Errorf("core: record %d: %w", i, err)
			}
			repaired[i] = dataset.Record{X: xs[i*d : (i+1)*d : (i+1)*d], S: rec.S, U: rec.U}
		}
		rp.Resolve(xs[lo*d : hi*d])
	}
	for i, rec := range repaired {
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
