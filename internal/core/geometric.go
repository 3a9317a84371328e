package core

import (
	"errors"
	"fmt"
	"sort"

	"otfair/internal/dataset"
)

// GeometricRepair implements the on-sample baseline of Del Barrio,
// Gordaliza & Loubes (the paper's [10], Eqs. 8–9), stratified per (u,
// feature) exactly as the paper's comparisons apply it: the empirical
// s-conditional samples are coupled by the exact OT plan and every research
// point is moved to the t-interpolation between itself and its coupled
// conditional mean:
//
//	x'_{0,i} = (1−t)·x_{0,i} + n₀·t·Σ_j π*_ij·x_{1,j}
//	x'_{1,j} = n₁·(1−t)·Σ_i π*_ij·x_{0,i} + t·x_{1,j}
//
// The repair is defined pointwise on the research sample, so it cannot be
// applied to off-sample (archival) data — the limitation that motivates the
// paper's distributional method.
func GeometricRepair(research *dataset.Table, t float64) (*dataset.Table, error) {
	if research == nil || research.Len() == 0 {
		return nil, errors.New("core: empty research table")
	}
	if t < 0 || t > 1 {
		return nil, fmt.Errorf("core: geometric repair t = %v outside [0,1]", t)
	}
	out := research.Clone()
	labelled, _ := research.Partition()
	for u := 0; u < 2; u++ {
		idx0 := labelled[dataset.Group{U: u, S: 0}]
		idx1 := labelled[dataset.Group{U: u, S: 1}]
		if len(idx0) == 0 || len(idx1) == 0 {
			if len(idx0) == 0 && len(idx1) == 0 {
				continue // u-population absent entirely
			}
			return nil, fmt.Errorf("core: u=%d population lacks an s-class (n0=%d, n1=%d)", u, len(idx0), len(idx1))
		}
		for k := 0; k < research.Dim(); k++ {
			if err := geometricRepairColumn(research, out, idx0, idx1, k, t); err != nil {
				return nil, fmt.Errorf("core: geometric repair (u=%d, k=%d): %w", u, k, err)
			}
		}
	}
	return out, nil
}

// geometricRepairColumn couples the two index sets on feature k and writes
// repaired values into out.
func geometricRepairColumn(in, out *dataset.Table, idx0, idx1 []int, k int, t float64) error {
	n0, n1 := len(idx0), len(idx1)
	// Sort group indices by feature value: the optimal coupling under any
	// convex cost is the monotone coupling of the sorted samples.
	ord0 := append([]int(nil), idx0...)
	ord1 := append([]int(nil), idx1...)
	sort.Slice(ord0, func(a, b int) bool { return in.At(ord0[a]).X[k] < in.At(ord0[b]).X[k] })
	sort.Slice(ord1, func(a, b int) bool { return in.At(ord1[a]).X[k] < in.At(ord1[b]).X[k] })

	// March the uniform masses 1/n0 and 1/n1 through the monotone coupling,
	// accumulating each point's coupled conditional mean.
	cond0 := make([]float64, n0) // n0·Σ_j π_ij x1j per sorted rank i
	cond1 := make([]float64, n1) // n1·Σ_i π_ij x0i per sorted rank j
	i, j := 0, 0
	remI, remJ := 1.0/float64(n0), 1.0/float64(n1)
	for i < n0 && j < n1 {
		mass := remI
		if remJ < mass {
			mass = remJ
		}
		cond0[i] += mass * float64(n0) * in.At(ord1[j]).X[k]
		cond1[j] += mass * float64(n1) * in.At(ord0[i]).X[k]
		remI -= mass
		remJ -= mass
		const eps = 1e-15
		if remI <= eps && remJ <= eps {
			i++
			j++
			remI, remJ = 1.0/float64(n0), 1.0/float64(n1)
		} else if remI <= eps {
			i++
			remI = 1.0 / float64(n0)
		} else {
			j++
			remJ = 1.0 / float64(n1)
		}
	}

	for rank, rec := range ord0 {
		x := in.At(rec).X[k]
		out.Records()[rec].X[k] = (1-t)*x + t*cond0[rank]
	}
	for rank, rec := range ord1 {
		x := in.At(rec).X[k]
		out.Records()[rec].X[k] = (1-t)*cond1[rank] + t*x
	}
	return nil
}
