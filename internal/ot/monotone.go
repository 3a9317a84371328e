package ot

import "errors"

// Monotone computes the exact optimal transport plan between two 1-D
// discrete measures under any convex cost (in particular the paper's
// squared Euclidean cost) using the monotone (north-west-corner on sorted
// supports) coupling. For measures on ℝ with convex costs, the
// quantile coupling is optimal (Santambrogio, Thm. 2.9), so this solver is
// exact in O(n+m) time and O(n+m) plan atoms — the fast path used for every
// π*_{u,s,k} of Algorithm 1.
func Monotone(mu, nu *Measure) (*Plan, error) {
	if mu == nil || nu == nil {
		return nil, errors.New("ot: nil measure")
	}
	n, m := mu.Len(), nu.Len()
	a := append([]float64(nil), mu.Weights()...)
	b := append([]float64(nil), nu.Weights()...)

	entries := make([]Entry, 0, n+m-1)
	i, j := 0, 0
	for i < n && j < m {
		// Skip exhausted states (zero weights on grids are common: the
		// interpolated pmfs of Eq. 11 can carry empty cells).
		if a[i] <= 0 {
			i++
			continue
		}
		if b[j] <= 0 {
			j++
			continue
		}
		mass := a[i]
		if b[j] < mass {
			mass = b[j]
		}
		entries = append(entries, Entry{I: i, J: j, Mass: mass})
		a[i] -= mass
		b[j] -= mass
		// Advance whichever side is exhausted; ties advance both.
		const eps = 1e-15
		if a[i] <= eps && b[j] <= eps {
			i++
			j++
		} else if a[i] <= eps {
			i++
		} else {
			j++
		}
	}
	return NewPlan(n, m, entries)
}
