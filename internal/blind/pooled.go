package blind

import (
	"fmt"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/kde"
	"otfair/internal/ot"
)

// fitPooled estimates the pooled u-conditional marginal of Eq. (10) on the
// support grid of every non-degenerate (u, feature) cell of plan: the KDE
// of the research column pooled over s, and the bandwidth it was smoothed
// with. It reads no s label.
func fitPooled(plan *core.Plan, research *dataset.Table) ([2][]pooledMarginal, error) {
	var out [2][]pooledMarginal
	for u := 0; u < 2; u++ {
		out[u] = make([]pooledMarginal, plan.Dim)
		for k := 0; k < plan.Dim; k++ {
			cell := plan.Cell(u, k)
			if cell.Degenerate {
				out[u][k] = pooledMarginal{degenerate: true}
				continue
			}
			est, err := kde.New(research.UColumn(u, k), plan.Opts.Kernel, plan.Opts.Bandwidth)
			if err != nil {
				return out, fmt.Errorf("blind: calibrating (u=%d, k=%d): pooled KDE: %w", u, k, err)
			}
			pmf, err := est.GridPMF(cell.Q)
			if err != nil {
				return out, fmt.Errorf("blind: calibrating (u=%d, k=%d): pooled interpolation: %w", u, k, err)
			}
			out[u][k] = pooledMarginal{pmf: pmf, h: est.Bandwidth()}
		}
	}
	return out, nil
}

// pooledCellFromPMF assembles the group-blind cell from an already
// estimated pooled marginal: one monotone transport from the pooled pmf to
// the cell's barycentric target, planted in both s slots.
func pooledCellFromPMF(c *core.Cell, pmf []float64, h float64) (*core.Cell, error) {
	if len(pmf) != len(c.Q) {
		return nil, fmt.Errorf("pooled marginal has %d states, support has %d", len(pmf), len(c.Q))
	}
	mu, err := ot.OnGrid(c.Q, pmf)
	if err != nil {
		return nil, err
	}
	nu, err := ot.OnGrid(c.Q, c.Bary)
	if err != nil {
		return nil, err
	}
	plan, err := ot.Monotone(mu, nu)
	if err != nil {
		return nil, fmt.Errorf("pooled transport: %w", err)
	}
	return &core.Cell{
		Q:      c.Q,
		PMF:    [2][]float64{pmf, pmf},
		Bary:   c.Bary,
		Target: [2][]float64{c.Bary, c.Bary},
		Plans:  [2]*ot.Plan{plan, plan},
		H:      [2]float64{h, h},
	}, nil
}
