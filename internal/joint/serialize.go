package joint

import (
	"encoding/json"
	"fmt"
	"io"

	"otfair/internal/ot"
)

// Joint plans are deployment artifacts exactly like the per-feature plans
// of internal/core: designed once, then applied to torrents, possibly in a
// different process. The JSON layout mirrors core's, with the product
// support stored as per-dimension grids (points are reconstructed, not
// stored — they are pure redundancy).
//
// Version 2 adds the scaling-form cells the separable design produces: a
// factored plan is its two scaling vectors plus the per-axis Gibbs factors
// (Σ_k n_k² entries), so an 8 000-state design serializes in O(n) where the
// dense entry list would be O(n²). No production path reads a joint plan
// back; the reader the tests round-trip through (ReadPlan, which also takes
// version-1 dense-only documents) lives in readplan_test.go.

// jointPlanVersion is bumped when the layout changes incompatibly.
const jointPlanVersion = 2

type planJSON struct {
	Version int         `json:"version"`
	Dim     int         `json:"dim"`
	Names   []string    `json:"names"`
	Opts    optionsJSON `json:"options"`
	Cells   [2]cellJSON `json:"cells"`
}

type optionsJSON struct {
	NQ        int     `json:"nq"`
	T         float64 `json:"t"`
	Kernel    string  `json:"kernel"`
	Bandwidth string  `json:"bandwidth"`
	Epsilon   float64 `json:"epsilon,omitempty"`
	MaxStates int     `json:"max_states"`
	// Documents from designs that could materialize the n² kernel may
	// also carry "dense"; it is ignored on read, since each cell's plans
	// say which representation they use.
}

type cellJSON struct {
	Grids [][]float64  `json:"grids"`
	PMF   [2][]float64 `json:"pmf"`
	Bary  []float64    `json:"bary"`
	// Plans holds entry lists (all version-1 documents, and version-2
	// documents written from entry-list plans).
	Plans [2][]ot.Entry `json:"plans,omitempty"`
	// Scaled holds the cell's scaling-form plans (the separable path,
	// version ≥ 2).
	Scaled *scaledCellJSON `json:"scaled,omitempty"`
}

// scaledCellJSON holds a cell's factored plans π_s = diag(u_s)·K·diag(v_s).
// Both s-plans of a cell share one Kronecker kernel, so the per-axis
// factors are stored once per cell and the rebuilt plans share one
// operator again after a round-trip.
type scaledCellJSON struct {
	Factors [][]float64  `json:"factors"`
	U       [2][]float64 `json:"u"`
	V       [2][]float64 `json:"v"`
}

// WriteJSON serializes the joint plan.
func (p *Plan) WriteJSON(w io.Writer) error {
	out := planJSON{
		Version: jointPlanVersion,
		Dim:     p.Dim,
		Names:   p.Names,
		Opts: optionsJSON{
			NQ:        p.Opts.NQ,
			T:         p.Opts.T,
			Kernel:    p.Opts.Kernel.String(),
			Bandwidth: p.Opts.Bandwidth.String(),
			Epsilon:   p.Opts.Epsilon,
			MaxStates: p.Opts.MaxStates,
		},
	}
	for u := 0; u < 2; u++ {
		cell := p.Cells[u]
		cj := cellJSON{
			Grids: cell.Grids,
			PMF:   cell.PMF,
			Bary:  cell.Bary,
		}
		var sharedKernel ot.KernelOp
		for s := 0; s < 2; s++ {
			switch plan := cell.Plans[s].(type) {
			case *ot.Plan:
				cj.Plans[s] = plan.Entries()
			case *ot.FactoredPlan:
				sep, ok := plan.Kernel().(*ot.SeparableKernel)
				if !ok {
					return fmt.Errorf("joint: cell u=%d s=%d: factored plan over a non-separable kernel is not serializable", u, s)
				}
				if cj.Scaled == nil {
					cj.Scaled = &scaledCellJSON{Factors: sep.Factors()}
					sharedKernel = plan.Kernel()
				} else if plan.Kernel() != sharedKernel {
					// The layout stores the factors once per cell, which is
					// only faithful when the cell's plans share one kernel —
					// as every designed cell does.
					return fmt.Errorf("joint: cell u=%d: factored plans do not share one kernel", u)
				}
				uVec, vVec := plan.Scalings()
				cj.Scaled.U[s], cj.Scaled.V[s] = uVec, vVec
			default:
				return fmt.Errorf("joint: cell u=%d s=%d: unserializable plan type %T", u, s, plan)
			}
		}
		out.Cells[u] = cj
	}
	return json.NewEncoder(w).Encode(out)
}
