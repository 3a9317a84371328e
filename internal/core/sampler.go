package core

import (
	"errors"

	"otfair/internal/rng"
)

// PlanSampler is the precomputed sampling state of a designed plan: one
// alias table per (u, s, feature, support row), each built from the
// normalized plan row that Algorithm 2 line 9 draws repairs from, with the
// empty-row fallback (nearest row carrying mass) resolved ahead of time.
//
// Building the tables once per plan instead of lazily per repairer is what
// makes the batched archival-repair service cheap to shard: every worker
// goroutine draws O(1) per value from the same immutable tables, with no
// map lookups or lazy-build synchronization on the hot path. A PlanSampler
// is immutable after construction and safe for concurrent use by any number
// of repairers.
type PlanSampler struct {
	plan *Plan
	// cells is indexed [u][k]; each cell holds one rowDraw per (s, row).
	cells [2][]cellSampler
}

type cellSampler struct {
	// rows[s] has one entry per support state of the cell.
	rows [2][]rowDraw
}

// rowDraw is the resolved multinomial M(·) of Eq. (15) for one plan row.
type rowDraw struct {
	// targets are the target-state indices carrying mass in the resolved
	// row; table draws an index into them by the matching normalized mass.
	targets []int
	table   *rng.Alias
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
	ps := &PlanSampler{plan: plan}
	for u := 0; u < 2; u++ {
		ps.cells[u] = make([]cellSampler, plan.Dim)
		for k := 0; k < plan.Dim; k++ {
			cell := plan.Cells[u][k]
			for s := 0; s < 2; s++ {
				n := len(cell.Q)
				rows := make([]rowDraw, n)
				// Many empty rows resolve to the same massive neighbour
				// (sparse research data leaves long empty grid runs), so
				// the table for each distinct resolved row is built once
				// and shared; only the fallback flag is per-q.
				built := make(map[int]rowDraw, n)
				for q := 0; q < n; q++ {
					row := nearestMassiveRow(cell, s, q)
					rd, ok := built[row]
					if !ok {
						targets, probs, hasMass := cell.Plans[s].RowConditional(row)
						if !hasMass {
							// nearestMassiveRow guarantees mass; reaching
							// here means the whole plan is empty, which
							// Design and ReadPlan both reject.
							return nil, errors.New("core: plan has no mass in any row")
						}
						rd = rowDraw{targets: targets, table: rng.NewAlias(probs)}
						built[row] = rd
					}
					rd.fallback = row != q
					rows[q] = rd
				}
				ps.cells[u][k].rows[s] = rows
			}
		}
	}
	return ps, nil
}

// Plan returns the plan the sampler was built from.
func (ps *PlanSampler) Plan() *Plan { return ps.plan }

// row fetches the resolved draw state for (u, s, k, q); indices are
// validated by the repairer before reaching here.
func (ps *PlanSampler) row(u, s, k, q int) *rowDraw {
	return &ps.cells[u][k].rows[s][q]
}

// nearestMassiveRow returns q if row q of plan s has mass, otherwise the
// closest row index that does.
func nearestMassiveRow(cell *Cell, s, q int) int {
	plan := cell.Plans[s]
	if plan.RowMass(q) > 0 {
		return q
	}
	n := len(cell.Q)
	for d := 1; d < n; d++ {
		if q-d >= 0 && plan.RowMass(q-d) > 0 {
			return q - d
		}
		if q+d < n && plan.RowMass(q+d) > 0 {
			return q + d
		}
	}
	return q
}
