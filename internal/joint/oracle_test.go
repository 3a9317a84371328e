package joint

import (
	"fmt"
	"testing"

	"otfair/internal/dataset"
	"otfair/internal/ot"
)

// The dense oracle: the materialized-kernel design the separable path
// replaced, kept here so the production design has one code path and the
// differential tests still have an independent reference. It builds an
// explicit n×n cost matrix, the dense Bregman barycenter and dense Sinkhorn
// plans over the same supports and pmfs the separable design uses.

// denseMaxStates caps the oracle: beyond it the n² cost matrix, Gibbs
// kernel and plans (512 MB of kernel alone at 8192 states) stop being an
// oracle and start being a memory incident.
const denseMaxStates = 8192

// designDense runs Design with the dense oracle finishing every cell.
func designDense(research *dataset.Table, opts Options) (*Plan, error) {
	return design(research, opts, denseCell)
}

func denseCell(cell *Cell, opts Options) (*Cell, error) {
	if states := cell.States(); states > denseMaxStates {
		return nil, fmt.Errorf("joint: product support has %d states (> %d, the dense-oracle cap)", states, denseMaxStates)
	}
	cost, err := ot.NewCostMatrixPoints(cell.Points, cell.Points, ot.SquaredEuclideanPoints)
	if err != nil {
		return nil, err
	}
	eps := opts.Epsilon
	if eps <= 0 {
		eps = 5e-3 * (1 + cost.Max())
	}

	bary, err := ot.BregmanBarycenterCost(cost,
		[][]float64{cell.PMF[0], cell.PMF[1]},
		[]float64{1 - opts.T, opts.T},
		ot.BregmanOptions{Epsilon: eps})
	if err != nil {
		return nil, fmt.Errorf("barycenter: %w", err)
	}
	cell.Bary = bary

	for s := 0; s < 2; s++ {
		res, err := ot.Sinkhorn(cell.PMF[s], bary, cost, ot.SinkhornOptions{Epsilon: eps})
		if err != nil {
			return nil, fmt.Errorf("s=%d plan: %w", s, err)
		}
		cell.Plans[s] = res.Plan
	}
	return cell, nil
}

// BenchmarkJointDesignDense times the dense oracle at the NQ=16, d=2
// setting of the root BenchmarkJointDesign — the pre-separable price.
func BenchmarkJointDesignDense(b *testing.B) {
	research, _ := paperTables(b, 99, 500, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := designDense(research, Options{NQ: 16}); err != nil {
			b.Fatal(err)
		}
	}
}
