package joint

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/rng"
)

// Diagnostics counts boundary conditions seen while repairing.
type Diagnostics struct {
	// Repaired is the number of records repaired.
	Repaired int64
	// Clamped counts coordinate values outside the support range.
	Clamped int64
	// EmptyRowFallbacks counts draws that landed on a zero-mass plan row
	// and fell back to the nearest-point row carrying mass.
	EmptyRowFallbacks int64
}

// Repairer applies a joint Plan to off-sample records — Algorithm 2
// generalized to whole feature vectors. Not safe for concurrent use: it
// owns an RNG stream.
type Repairer struct {
	plan *Plan
	rng  *rng.RNG
	diag Diagnostics
	// alias caches one sampler per (u, s, row): archival torrents revisit
	// the same rows constantly. The cache is bounded by total cached atoms
	// (aliasAtomBudget), not row count: entropic rows over an 8 000-state
	// product support carry thousands of atoms each, and the τ-Bernoulli
	// snap keeps discovering new rows over an unbounded torrent, so an
	// uncapped cache would grow to rows × states atoms. Eviction never
	// changes outputs — a rebuilt sampler is identical, the draw consumes
	// the same RNG stream.
	alias      map[aliasKey]*rowSampler
	aliasAtoms int
	// builder and the row scratch are reused by every sampler build.
	builder rng.AliasBuilder
	targets []int32
	probs   []float64
	// aliasBudget is aliasAtomBudget in production; tests shrink it to
	// force eviction on small plans.
	aliasBudget int
	// onEvict, when set (tests only), observes each eviction in order.
	onEvict func(aliasKey)
}

// aliasAtomBudget bounds the alias cache at ~4M cached atoms (≈64 MB of
// 16-byte alias slots). Small cells (the 256-state
// NQ=16, d=2 design has at most 1 024 distinct keys) never evict; the
// 8 000-state designs cycle the working set instead of exhausting memory.
const aliasAtomBudget = 1 << 22

type aliasKey struct {
	u, s, row int
}

type rowSampler struct {
	// slots is the row's alias table over its target product states.
	slots []rng.AliasSlot
	// hits counts cache lookups that found this sampler; eviction sheds
	// the coldest samplers first.
	hits uint64
}

// NewRepairer binds a joint plan to a randomness source.
func NewRepairer(plan *Plan, r *rng.RNG) (*Repairer, error) {
	if plan == nil {
		return nil, errors.New("joint: nil plan")
	}
	if r == nil {
		return nil, errors.New("joint: nil rng")
	}
	return &Repairer{plan: plan, rng: r, alias: make(map[aliasKey]*rowSampler), aliasBudget: aliasAtomBudget}, nil
}

// Diagnostics returns the counters accumulated so far.
func (rp *Repairer) Diagnostics() Diagnostics { return rp.diag }

// RepairRecord repairs one labelled record: every coordinate is snapped to
// its axis with the τ-Bernoulli randomization of Eq. (14), the flat product
// state selects the plan row, and the repaired vector is drawn in one piece
// from the row conditional (Eq. 15 over the product support).
func (rp *Repairer) RepairRecord(rec dataset.Record) (dataset.Record, error) {
	if rec.S != 0 && rec.S != 1 {
		return dataset.Record{}, errors.New("joint: record needs a binary s label (estimate it first, or use the blind repairer)")
	}
	if rec.U != 0 && rec.U != 1 {
		return dataset.Record{}, fmt.Errorf("joint: invalid u label %d", rec.U)
	}
	if len(rec.X) != rp.plan.Dim {
		return dataset.Record{}, fmt.Errorf("joint: record has %d features, want %d", len(rec.X), rp.plan.Dim)
	}
	for k, x := range rec.X {
		if math.IsNaN(x) {
			return dataset.Record{}, fmt.Errorf("joint: feature %d value is NaN", k)
		}
	}
	cell := rp.plan.Cells[rec.U]
	idx := make([]int, rp.plan.Dim)
	for k, x := range rec.X {
		q, clamped := core.SnapToGrid(cell.Grids[k], x, rp.rng)
		if clamped {
			rp.diag.Clamped++
		}
		idx[k] = q
	}
	row := flatIndex(cell.Grids, idx)
	j := rp.drawTarget(cell, rec.U, rec.S, row)
	out := dataset.Record{X: append([]float64(nil), cell.Points[j]...), S: rec.S, U: rec.U}
	rp.diag.Repaired++
	return out, nil
}

// drawTarget draws the repaired product state from plan row `row`.
func (rp *Repairer) drawTarget(cell *Cell, u, s, row int) int {
	key := aliasKey{u: u, s: s, row: row}
	sampler, ok := rp.alias[key]
	if !ok {
		r := rp.nearestMassiveRow(cell, s, row)
		if r != row {
			rp.diag.EmptyRowFallbacks++
		}
		targets, probs, ok := cell.Plans[s].AppendRowConditional(rp.targets[:0], rp.probs[:0], r)
		if !ok {
			panic("joint: plan has no mass in any row")
		}
		rp.targets, rp.probs = targets, probs
		sampler = &rowSampler{slots: rp.builder.Append(make([]rng.AliasSlot, 0, len(probs)), probs, targets)}
		if rp.aliasAtoms+len(sampler.slots) > rp.aliasBudget {
			rp.evictAliases()
		}
		rp.alias[key] = sampler
		rp.aliasAtoms += len(sampler.slots)
	}
	sampler.hits++
	return rp.rng.DrawAlias(sampler.slots)
}

// evictAliases sheds about a quarter of the budget, coldest samplers
// first with key order breaking ties — the victim set is a pure function
// of the access history, never of map iteration order. Rebuilt samplers
// are identical and the draw consumes the same RNG stream, so eviction
// cannot change a single output draw either way; determinism here keeps
// the cache's *working set* (and therefore rebuild cost and memory
// profile) reproducible across runs of the same torrent.
func (rp *Repairer) evictAliases() {
	type candidate struct {
		key   aliasKey
		atoms int
		hits  uint64
	}
	cands := make([]candidate, 0, len(rp.alias))
	//otfair:nondet-ok candidates are fully sorted below; map order is erased
	for k, cached := range rp.alias {
		cands = append(cands, candidate{key: k, atoms: len(cached.slots), hits: cached.hits})
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.hits != b.hits {
			return a.hits < b.hits
		}
		if a.key.u != b.key.u {
			return a.key.u < b.key.u
		}
		if a.key.s != b.key.s {
			return a.key.s < b.key.s
		}
		return a.key.row < b.key.row
	})
	shed := rp.aliasBudget / 4
	for _, c := range cands {
		rp.aliasAtoms -= c.atoms
		delete(rp.alias, c.key)
		if rp.onEvict != nil {
			rp.onEvict(c.key)
		}
		if shed -= c.atoms; shed <= 0 {
			return
		}
	}
}

// nearestMassiveRow returns row if it has mass, otherwise the row whose
// support point is closest in squared Euclidean distance among rows with
// mass. Sinkhorn plans are dense, so this path only triggers after the
// feasibility rounding zeroes a boundary row.
func (rp *Repairer) nearestMassiveRow(cell *Cell, s, row int) int {
	plan := cell.Plans[s]
	if plan.RowMass(row) > 0 {
		return row
	}
	best, bestDist := row, -1.0
	from := cell.Points[row]
	for i := range cell.Points {
		if plan.RowMass(i) <= 0 {
			continue
		}
		d := 0.0
		for k := range from {
			diff := from[k] - cell.Points[i][k]
			d += diff * diff
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// RepairTable repairs every record of a table in order, returning a new
// table with identical labels.
func (rp *Repairer) RepairTable(t *dataset.Table) (*dataset.Table, error) {
	if t == nil {
		return nil, errors.New("joint: nil table")
	}
	if t.Dim() != rp.plan.Dim {
		return nil, fmt.Errorf("joint: table dimension %d does not match plan %d", t.Dim(), rp.plan.Dim)
	}
	out, err := dataset.NewTable(t.Dim(), t.Names())
	if err != nil {
		return nil, err
	}
	for i := 0; i < t.Len(); i++ {
		rec, err := rp.RepairRecord(t.At(i))
		if err != nil {
			return nil, fmt.Errorf("joint: record %d: %w", i, err)
		}
		if err := out.Append(rec); err != nil {
			return nil, fmt.Errorf("joint: record %d: %w", i, err)
		}
	}
	return out, nil
}
