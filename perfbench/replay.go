package main

import (
	"bytes"
	"fmt"
	"time"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/kde"
	"otfair/internal/ot"
	"otfair/internal/stat"
)

// designConfig is a research-set size and the slice of Algorithm-1
// options the workloads vary.
type designConfig struct {
	research int
	nq       int
	solver   core.SolverKind
}

// query renders the options as POST /v1/plans query parameters.
func (d designConfig) query() string {
	return fmt.Sprintf("nq=%d&solver=%s", d.nq, d.solver)
}

// options are the defaulted core options the server designs with: the
// paper's t = 0.5 barycentric target at full repair, Gaussian KDE with the
// Silverman bandwidth.
func (d designConfig) options() core.Options {
	return core.Options{NQ: d.nq, T: 0.5, Amount: 1, Solver: d.solver}
}

// designSpans accumulates the benchmark-side spans around each layer of the
// replayed designs.
type designSpans struct {
	designs, cells int
	decode         time.Duration // research CSV → table (dataset)
	kde            time.Duration // both s-conditional KDE grid marginals (kde)
	target         time.Duration // barycentric repair target (ot)
	plan           time.Duration // both transport plans (ot)
}

// replayDesign re-runs Algorithm 1 on a research CSV body one layer at a
// time, timing each call into a layer. It calls the layers directly, so
// neither core's design-cell cache nor ot's cost-matrix cache can serve a
// result: every replay does the full work. The assembled plan must
// fingerprint to the id the server stored for the same body, which makes
// the replay an independent check of the served design.
func replayDesign(body []byte, cfg designConfig, sp *designSpans) (*core.Plan, error) {
	start := time.Now()
	research, err := dataset.ReadCSV(bytes.NewReader(body))
	sp.decode += time.Since(start)
	if err != nil {
		return nil, err
	}
	opts := cfg.options()
	plan := &core.Plan{
		Dim:        research.Dim(),
		Names:      append([]string(nil), research.Names()...),
		Opts:       opts,
		GroupSizes: make(map[dataset.Group]int, 4),
	}
	counts := research.Counts()
	for _, g := range dataset.Groups() {
		plan.GroupSizes[g] = counts[g]
	}
	for u := 0; u < 2; u++ {
		plan.Cells[u] = make([]*core.Cell, research.Dim())
		for k := range plan.Cells[u] {
			x0 := research.GroupColumn(dataset.Group{U: u, S: 0}, k)
			x1 := research.GroupColumn(dataset.Group{U: u, S: 1}, k)
			cell, err := replayCell(x0, x1, opts, sp)
			if err != nil {
				return nil, fmt.Errorf("replaying cell (u=%d, k=%d): %w", u, k, err)
			}
			plan.Cells[u][k] = cell
		}
	}
	sp.designs++
	return plan, nil
}

// replayCell is core.DesignCell for the barycentric full-repair target with
// the monotone or Sinkhorn solver.
func replayCell(x0, x1 []float64, opts core.Options, sp *designSpans) (*core.Cell, error) {
	pooled := append(append(make([]float64, 0, len(x0)+len(x1)), x0...), x1...)
	lo, hi, err := stat.MinMax(pooled)
	if err != nil {
		return nil, err
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("constant research feature %v", lo)
	}
	q := stat.Linspace(lo, hi, opts.NQ)
	cell := &core.Cell{Q: q}

	start := time.Now()
	for s, sample := range [2][]float64{x0, x1} {
		est, err := kde.New(sample, opts.Kernel, opts.Bandwidth)
		if err != nil {
			return nil, err
		}
		if cell.PMF[s], err = est.GridPMF(q); err != nil {
			return nil, err
		}
		cell.H[s] = est.Bandwidth()
	}
	sp.kde += time.Since(start)

	start = time.Now()
	bary, err := ot.GridBarycenter(q, [][]float64{cell.PMF[0], cell.PMF[1]}, []float64{1 - opts.T, opts.T})
	sp.target += time.Since(start)
	if err != nil {
		return nil, err
	}
	cell.Bary = bary
	cell.Target = [2][]float64{bary, bary}

	start = time.Now()
	err = replayPlans(cell, opts)
	sp.plan += time.Since(start)
	if err != nil {
		return nil, err
	}
	sp.cells++
	return cell, nil
}

func replayPlans(cell *core.Cell, opts core.Options) error {
	switch opts.Solver {
	case core.SolverMonotone:
		nu, err := ot.OnGrid(cell.Q, cell.Bary)
		if err != nil {
			return err
		}
		for s := 0; s < 2; s++ {
			mu, err := ot.OnGrid(cell.Q, cell.PMF[s])
			if err != nil {
				return err
			}
			if cell.Plans[s], err = ot.Monotone(mu, nu); err != nil {
				return err
			}
		}
	case core.SolverSinkhorn:
		cost, err := ot.NewCostMatrix(cell.Q, cell.Q, ot.SquaredEuclidean)
		if err != nil {
			return err
		}
		for s := 0; s < 2; s++ {
			res, err := ot.Sinkhorn(cell.PMF[s], cell.Bary, cost, ot.SinkhornOptions{})
			if err != nil {
				return err
			}
			cell.Plans[s] = res.Plan
		}
	default:
		return fmt.Errorf("replay does not cover solver %s", opts.Solver)
	}
	return nil
}
