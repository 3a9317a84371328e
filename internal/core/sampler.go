package core

import (
	"errors"
	"math"

	"otfair/internal/ot"
	"otfair/internal/rng"
)

// PlanSampler is the precomputed sampling state of a designed plan: one
// alias table per (u, s, feature, support row), each built from the
// normalized plan row that Algorithm 2 line 9 draws repairs from, with the
// empty-row fallback (nearest row carrying mass) resolved ahead of time.
//
// Every table lives in one slot array, slots, laid out back to back in
// (u, k, s, row) order; a row's table is a range of it. A slot
// (rng.AliasSlot) carries its category's probability and the target
// states of both outcomes, so a draw reads one 16-byte slot and never a
// separate label table. slots[0] is the sentinel every degenerate cell
// draws through (it lands on state 0 whatever the uniform).
//
// Building the tables once per plan instead of lazily per repairer is what
// makes the batched archival-repair service cheap to shard: every worker
// goroutine draws O(1) per value from the same immutable tables, with no
// map lookups or lazy-build synchronization on the hot path. A PlanSampler
// is immutable after construction and safe for concurrent use by any number
// of repairers.
type PlanSampler struct {
	plan  *Plan
	slots []rng.AliasSlot
	// cells[u*Dim+k] is the plan's cell (u, k); draws name it by that
	// index.
	cells []*Cell
	// rows is indexed [u*Dim+k][s]; each holds one rowDraw per support
	// state of the cell.
	rows [][2][]rowDraw
}

// degenerateSlot is the index of the sentinel slot (Prob 1, both states
// 0) that draws in a degenerate cell resolve through.
const degenerateSlot = 0

// rowDraw is the resolved multinomial M(·) of Eq. (15) for one plan row:
// its alias table is slots[off : off+n].
type rowDraw struct {
	off, n int32
	// fallback marks rows with no mass of their own, resolved to the
	// nearest massive row; draws through them count as EmptyRowFallbacks.
	fallback bool
}

// NewPlanSampler precomputes the draw tables for every (u, s, feature, row)
// of the plan. Cost is O(Σ rows · row-nnz) — negligible next to the design
// itself — and the result can be shared across repairers and goroutines.
func NewPlanSampler(plan *Plan) (*PlanSampler, error) {
	if plan == nil {
		return nil, errors.New("core: nil plan")
	}
	atoms := 1
	for u := 0; u < 2; u++ {
		for _, cell := range plan.Cells[u] {
			atoms += cell.Plans[0].NNZ()
			if cell.Plans[1] != cell.Plans[0] {
				atoms += cell.Plans[1].NNZ()
			}
		}
	}
	if atoms > math.MaxInt32 {
		return nil, errors.New("core: plan has too many atoms to sample")
	}
	ps := &PlanSampler{
		plan:  plan,
		slots: make([]rng.AliasSlot, 1, atoms),
		cells: make([]*Cell, 0, 2*plan.Dim),
		rows:  make([][2][]rowDraw, 2*plan.Dim),
	}
	ps.slots[degenerateSlot] = rng.AliasSlot{Prob: 1}
	var b rowBuilder
	for u := 0; u < 2; u++ {
		for k := 0; k < plan.Dim; k++ {
			cell := plan.Cells[u][k]
			c := len(ps.cells)
			ps.cells = append(ps.cells, cell)
			for s := 0; s < 2; s++ {
				if s == 1 && cell.Plans[1] == cell.Plans[0] {
					// Pooled and degenerate cells plant one plan in both
					// s slots: one set of tables serves both.
					ps.rows[c][1] = ps.rows[c][0]
					break
				}
				rows, err := b.build(ps, cell.Plans[s], len(cell.Q))
				if err != nil {
					return nil, err
				}
				ps.rows[c][s] = rows
			}
		}
	}
	return ps, nil
}

// rowBuilder holds the scratch one NewPlanSampler run reuses across rows.
type rowBuilder struct {
	alias   rng.AliasBuilder
	probs   []float64
	targets []int32
}

// build appends the alias table of every massive row of plan (n rows) to
// ps.slots and returns one rowDraw per row, each empty row pointing at its
// nearest massive row's table.
func (b *rowBuilder) build(ps *PlanSampler, plan *ot.Plan, n int) ([]rowDraw, error) {
	rows := make([]rowDraw, n)
	massive := false
	for q := range rows {
		targets, probs, ok := plan.AppendRowConditional(b.targets[:0], b.probs[:0], q)
		if !ok {
			continue
		}
		off := len(ps.slots)
		ps.slots = b.alias.Append(ps.slots, probs, targets)
		rows[q] = rowDraw{off: int32(off), n: int32(len(probs))}
		b.targets, b.probs = targets, probs
		massive = true
	}
	if !massive {
		// Design and ReadPlan both reject a plan without mass.
		return nil, errors.New("core: plan has no mass in any row")
	}
	for q := range rows {
		if rows[q].n == 0 {
			rows[q] = rows[nearestMassiveRow(rows, q)]
			rows[q].fallback = true
		}
	}
	return rows, nil
}

// Plan returns the plan the sampler was built from.
func (ps *PlanSampler) Plan() *Plan { return ps.plan }

// nearestMassiveRow returns the closest row index to q that carries mass
// of its own (the lower neighbour first on ties); q itself must be empty
// and some row massive. Rows already resolved to a neighbour's table do
// not count.
func nearestMassiveRow(rows []rowDraw, q int) int {
	massive := func(i int) bool { return rows[i].n > 0 && !rows[i].fallback }
	for d := 1; ; d++ {
		if q-d >= 0 && massive(q-d) {
			return q - d
		}
		if q+d < len(rows) && massive(q+d) {
			return q + d
		}
	}
}
