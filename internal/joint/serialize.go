package joint

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"otfair/internal/kde"
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
// dense entry list would be O(n²). Version-1 documents (dense entries only)
// are still read.

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

// ReadPlan deserializes a joint plan written by WriteJSON, re-validating
// every component so corrupted files fail loudly. Version 1 (dense-only)
// and version 2 (dense or scaling-form) documents are both accepted.
func ReadPlan(r io.Reader) (*Plan, error) {
	var in planJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("joint: decoding plan: %w", err)
	}
	if in.Version < 1 || in.Version > jointPlanVersion {
		return nil, fmt.Errorf("joint: plan version %d unsupported (want 1..%d)", in.Version, jointPlanVersion)
	}
	if in.Dim <= 0 {
		return nil, errors.New("joint: plan has non-positive dimension")
	}
	kernel, err := kde.ParseKernel(in.Opts.Kernel)
	if err != nil {
		return nil, err
	}
	bandwidth, err := kde.ParseBandwidth(in.Opts.Bandwidth)
	if err != nil {
		return nil, err
	}
	plan := &Plan{
		Dim:   in.Dim,
		Names: in.Names,
		Opts: Options{
			NQ:        in.Opts.NQ,
			T:         in.Opts.T,
			Kernel:    kernel,
			Bandwidth: bandwidth,
			Epsilon:   in.Opts.Epsilon,
			MaxStates: in.Opts.MaxStates,
		},
	}
	for u := 0; u < 2; u++ {
		cell, err := cellFromJSON(in.Cells[u], in.Dim)
		if err != nil {
			return nil, fmt.Errorf("joint: plan cell u=%d: %w", u, err)
		}
		plan.Cells[u] = cell
	}
	return plan, nil
}

func cellFromJSON(cj cellJSON, dim int) (*Cell, error) {
	if len(cj.Grids) != dim {
		return nil, fmt.Errorf("cell has %d grid axes, want %d", len(cj.Grids), dim)
	}
	states := 1
	for k, g := range cj.Grids {
		if len(g) == 0 {
			return nil, fmt.Errorf("axis %d is empty", k)
		}
		for i := 1; i < len(g); i++ {
			if g[i] <= g[i-1] {
				return nil, fmt.Errorf("axis %d not ascending at state %d", k, i)
			}
		}
		states *= len(g)
	}
	if len(cj.Bary) != states {
		return nil, fmt.Errorf("barycenter has %d states, support has %d", len(cj.Bary), states)
	}
	cell := &Cell{Grids: cj.Grids, Bary: cj.Bary, Points: productPoints(cj.Grids)}
	// Scaling-form cells rebuild the cell's shared kernel exactly once;
	// NewSeparableFactors validates squareness and entry sanity, the dims
	// check pins the factor product to the grid's state count.
	var op *ot.SeparableKernel
	if cj.Scaled != nil {
		var err error
		op, err = ot.NewSeparableFactors(cj.Scaled.Factors)
		if err != nil {
			return nil, err
		}
		if n, _ := op.Dims(); n != states {
			return nil, fmt.Errorf("factors multiply to %d states, support has %d", n, states)
		}
	}
	for s := 0; s < 2; s++ {
		if len(cj.PMF[s]) != states {
			return nil, fmt.Errorf("pmf[%d] has %d states, support has %d", s, len(cj.PMF[s]), states)
		}
		cell.PMF[s] = cj.PMF[s]
		plan, err := planFromJSON(cj, op, s, states)
		if err != nil {
			return nil, fmt.Errorf("plan[%d]: %w", s, err)
		}
		if plan.TotalMass() <= 0 {
			return nil, fmt.Errorf("plan[%d] carries no mass", s)
		}
		cell.Plans[s] = plan
	}
	return cell, nil
}

// planFromJSON rebuilds one plan slot, preferring the scaling form when
// present. Exactly one representation must be populated per slot; both
// scaling-form slots share the cell's one rebuilt kernel.
func planFromJSON(cj cellJSON, op *ot.SeparableKernel, s, states int) (ot.RowPlan, error) {
	if cj.Scaled != nil && len(cj.Scaled.U[s]) > 0 {
		if len(cj.Plans[s]) > 0 {
			return nil, errors.New("both dense and scaled representations present")
		}
		return ot.NewFactoredPlan(op, cj.Scaled.U[s], cj.Scaled.V[s])
	}
	return ot.NewPlan(states, states, cj.Plans[s])
}
