package joint

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"otfair/internal/kde"
	"otfair/internal/ot"
)

// States returns the product-support size.
func (c *Cell) States() int { return len(c.Points) }

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
