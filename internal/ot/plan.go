package ot

import (
	"fmt"
	"math"
	"sort"
)

// Entry is one atom of a transport plan: mass moved from source state I to
// target state J.
type Entry struct {
	I, J int
	Mass float64
}

// Plan is a Kantorovich coupling between an n-state source and an m-state
// target, stored sparsely. Exact 1-D plans have at most n+m−1 atoms, so the
// sparse form is what makes repairing large research sets (the geometric
// baseline on Adult) feasible; Dense materializes the full matrix when a
// caller wants it.
type Plan struct {
	n, m    int
	entries []Entry
	// rowStart[i]..rowStart[i+1] indexes entries of row i once finalized.
	rowStart []int
}

// NewPlan assembles a plan from entries, validating indices and mass
// non-negativity, merging duplicates, and sorting row-major.
func NewPlan(n, m int, entries []Entry) (*Plan, error) {
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("ot: plan dimensions must be positive, got %d×%d", n, m)
	}
	if m > math.MaxInt32 {
		// Row conditionals carry target states as int32.
		return nil, fmt.Errorf("ot: %d target states exceed the int32 state range", m)
	}
	es := append([]Entry(nil), entries...)
	for _, e := range es {
		if e.I < 0 || e.I >= n || e.J < 0 || e.J >= m {
			return nil, fmt.Errorf("ot: plan entry (%d,%d) outside %d×%d", e.I, e.J, n, m)
		}
		if e.Mass < 0 || math.IsNaN(e.Mass) {
			return nil, fmt.Errorf("ot: plan entry (%d,%d) has invalid mass %v", e.I, e.J, e.Mass)
		}
	}
	sort.Slice(es, func(a, b int) bool {
		if es[a].I != es[b].I {
			return es[a].I < es[b].I
		}
		return es[a].J < es[b].J
	})
	// Merge duplicates and drop zero-mass atoms.
	merged := es[:0]
	for _, e := range es {
		if e.Mass == 0 {
			continue
		}
		if len(merged) > 0 {
			last := &merged[len(merged)-1]
			if last.I == e.I && last.J == e.J {
				last.Mass += e.Mass
				continue
			}
		}
		merged = append(merged, e)
	}
	p := &Plan{n: n, m: m, entries: merged}
	p.index()
	return p, nil
}

func (p *Plan) index() {
	p.rowStart = make([]int, p.n+1)
	for _, e := range p.entries {
		p.rowStart[e.I+1]++
	}
	for i := 0; i < p.n; i++ {
		p.rowStart[i+1] += p.rowStart[i]
	}
}

// Dims reports the (source, target) state counts.
func (p *Plan) Dims() (n, m int) { return p.n, p.m }

// Entries returns the atoms in row-major order (not a copy).
func (p *Plan) Entries() []Entry { return p.entries }

// NNZ reports the number of non-zero atoms.
func (p *Plan) NNZ() int { return len(p.entries) }

// Row returns the atoms of source row i (a sub-slice, not a copy).
func (p *Plan) Row(i int) []Entry {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("ot: row %d out of %d", i, p.n))
	}
	return p.entries[p.rowStart[i]:p.rowStart[i+1]]
}

// RowMass returns the total mass of row i.
func (p *Plan) RowMass(i int) float64 {
	s := 0.0
	for _, e := range p.Row(i) {
		s += e.Mass
	}
	return s
}

// TotalMass returns the total transported mass (1 for a coupling of
// probability measures).
func (p *Plan) TotalMass() float64 {
	s := 0.0
	for _, e := range p.entries {
		s += e.Mass
	}
	return s
}

// Cost returns Σ_ij π_ij · c(i,j) under the given cost function.
func (p *Plan) Cost(cost func(i, j int) float64) float64 {
	s := 0.0
	for _, e := range p.entries {
		s += e.Mass * cost(e.I, e.J)
	}
	return s
}

// AppendRowConditional appends row i normalized into a conditional pmf
// over the target states to targets and probs (aligned with each other)
// and returns the extended slices. This is the multinomial M(·) of Eq. (15)
// that Algorithm 2 samples repairs from; callers reuse the slices as
// scratch across rows. Rows with zero mass append nothing and return
// ok == false; Algorithm 2 treats those as "no plan evidence" and falls
// back to the nearest massive row.
func (p *Plan) AppendRowConditional(targets []int32, probs []float64, i int) ([]int32, []float64, bool) {
	row := p.Row(i)
	total := 0.0
	for _, e := range row {
		total += e.Mass
	}
	if total <= 0 {
		return targets, probs, false
	}
	for _, e := range row {
		targets = append(targets, int32(e.J))
		probs = append(probs, e.Mass/total)
	}
	return targets, probs, true
}

// TruncateSubUlp sparsifies one row of a dense (entropic) plan in place:
// atoms whose mass is below one ulp of the row total — mass so small that
// adding it to the total cannot change the float64 result — are zeroed and
// their sum is folded into the row's dominant atom, so the row marginal is
// preserved exactly. The multinomial Algorithm 2 samples from the row is
// unchanged at float64 resolution (a dropped atom's draw probability is
// below 2⁻⁵²), but the draw and alias tables built from the row shrink from
// the full n_Q support to the effective one, which is what keeps archival
// repair memory bounded for Sinkhorn designs at n_Q = 250+. It returns the
// number of atoms dropped.
func TruncateSubUlp(row []float64) (dropped int) {
	total, maxIdx := 0.0, -1
	for j, v := range row {
		total += v
		if maxIdx < 0 || v > row[maxIdx] {
			maxIdx = j
		}
	}
	if maxIdx < 0 || total <= 0 {
		return 0
	}
	thresh := total * 0x1p-52
	folded := 0.0
	for j, v := range row {
		if v > 0 && v < thresh && j != maxIdx {
			folded += v
			row[j] = 0
			dropped++
		}
	}
	row[maxIdx] += folded
	return dropped
}
