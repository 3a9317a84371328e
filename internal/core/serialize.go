package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"otfair/internal/dataset"
	"otfair/internal/kde"
	"otfair/internal/ot"
)

// Plans are designed once on the research data and then deployed against
// archival torrents, potentially in separate processes or long after design
// time. The JSON form below is that deployment artifact: self-contained,
// versioned, and byte-stable for a given plan.

// planVersion is bumped when the serialized layout changes incompatibly.
const planVersion = 1

type planJSON struct {
	Version    int            `json:"version"`
	Dim        int            `json:"dim"`
	Names      []string       `json:"names"`
	Opts       optionsJSON    `json:"options"`
	GroupSizes map[string]int `json:"group_sizes"`
	Cells      [2][]cellJSON  `json:"cells"`
}

type optionsJSON struct {
	NQ              int     `json:"nq"`
	T               float64 `json:"t"`
	Amount          float64 `json:"amount"`
	Kernel          string  `json:"kernel"`
	Bandwidth       string  `json:"bandwidth"`
	Solver          string  `json:"solver"`
	Target          string  `json:"target"`
	Barycenter      string  `json:"barycenter"`
	SinkhornEpsilon float64 `json:"sinkhorn_epsilon,omitempty"`
}

type cellJSON struct {
	Q          []float64     `json:"q"`
	PMF        [2][]float64  `json:"pmf"`
	Bary       []float64     `json:"bary"`
	Target     [2][]float64  `json:"target"`
	Plans      [2][]ot.Entry `json:"plans"`
	H          [2]float64    `json:"h"`
	Degenerate bool          `json:"degenerate,omitempty"`
}

func groupKey(g dataset.Group) string { return fmt.Sprintf("u%ds%d", g.U, g.S) }

// WriteJSON serializes the plan.
func (p *Plan) WriteJSON(w io.Writer) error {
	out := planJSON{
		Version: planVersion,
		Dim:     p.Dim,
		Names:   p.Names,
		Opts: optionsJSON{
			NQ:              p.Opts.NQ,
			T:               p.Opts.T,
			Amount:          p.Opts.Amount,
			Kernel:          p.Opts.Kernel.String(),
			Bandwidth:       p.Opts.Bandwidth.String(),
			Solver:          p.Opts.Solver.String(),
			Target:          p.Opts.Target.String(),
			Barycenter:      p.Opts.Barycenter.String(),
			SinkhornEpsilon: p.Opts.SinkhornEpsilon,
		},
		GroupSizes: make(map[string]int, len(p.GroupSizes)),
	}
	//otfair:nondet-ok map-to-map copy; encoding/json marshals map keys sorted
	for g, n := range p.GroupSizes {
		out.GroupSizes[groupKey(g)] = n
	}
	for u := 0; u < 2; u++ {
		out.Cells[u] = make([]cellJSON, len(p.Cells[u]))
		for k, cell := range p.Cells[u] {
			cj := cellJSON{
				Q:          cell.Q,
				PMF:        cell.PMF,
				Bary:       cell.Bary,
				Target:     cell.Target,
				H:          cell.H,
				Degenerate: cell.Degenerate,
			}
			for s := 0; s < 2; s++ {
				cj.Plans[s] = cell.Plans[s].Entries()
			}
			out.Cells[u][k] = cj
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// MarshalCanonical returns the plan's canonical serialized form — exactly
// the bytes WriteJSON emits. encoding/json sorts map keys and the cell
// slices are in fixed (u, k) order, so the bytes are a pure function of the
// plan's content: equal plans serialize identically, which is what lets the
// plan store key on a content hash of this buffer.
func (p *Plan) MarshalCanonical() ([]byte, error) {
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Fingerprint returns the 128-bit content hash of the canonical serialized
// plan as a 32-character lowercase hex ID — the key the disk-backed plan
// store and the serving layer address plans by. Plans with identical
// content (including options) share a fingerprint; any semantic change
// yields a new one.
func (p *Plan) Fingerprint() (string, error) {
	raw, err := p.MarshalCanonical()
	if err != nil {
		return "", err
	}
	return FingerprintBytes(raw), nil
}

// FingerprintBytes is the fingerprint of an already-serialized canonical
// plan. It is the single definition of the hash-to-ID encoding: callers
// that hold the bytes (the plan store's Put) and Fingerprint must agree,
// or content addressing breaks.
func FingerprintBytes(raw []byte) string {
	h := ot.HashBytes(raw)
	return fmt.Sprintf("%016x%016x", h[0], h[1])
}

// ReadPlan deserializes a plan written by WriteJSON, re-validating every
// component so a corrupted or hand-edited file fails loudly rather than
// repairing data with garbage.
func ReadPlan(r io.Reader) (*Plan, error) {
	var in planJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decoding plan: %w", err)
	}
	if in.Version != planVersion {
		return nil, fmt.Errorf("core: plan version %d unsupported (want %d)", in.Version, planVersion)
	}
	if in.Dim <= 0 {
		return nil, errors.New("core: plan has non-positive dimension")
	}
	kernel, err := kde.ParseKernel(in.Opts.Kernel)
	if err != nil {
		return nil, err
	}
	bandwidth, err := kde.ParseBandwidth(in.Opts.Bandwidth)
	if err != nil {
		return nil, err
	}
	solver, err := ParseSolver(in.Opts.Solver)
	if err != nil {
		return nil, err
	}
	target, err := ParseTarget(in.Opts.Target)
	if err != nil {
		return nil, err
	}
	bary, err := ParseBarycenter(in.Opts.Barycenter)
	if err != nil {
		return nil, err
	}
	plan := &Plan{
		Dim:   in.Dim,
		Names: in.Names,
		Opts: Options{
			NQ:              in.Opts.NQ,
			T:               in.Opts.T,
			Amount:          in.Opts.Amount,
			AmountSet:       true,
			Kernel:          kernel,
			Bandwidth:       bandwidth,
			Solver:          solver,
			Target:          target,
			Barycenter:      bary,
			SinkhornEpsilon: in.Opts.SinkhornEpsilon,
		},
		GroupSizes: make(map[dataset.Group]int, 4),
	}
	if err := plan.Opts.validate(); err != nil {
		return nil, err
	}
	for _, g := range dataset.Groups() {
		if n, ok := in.GroupSizes[groupKey(g)]; ok {
			if n < 0 {
				return nil, fmt.Errorf("core: plan group %s has negative size %d", groupKey(g), n)
			}
			plan.GroupSizes[g] = n
		}
	}
	for u := 0; u < 2; u++ {
		if len(in.Cells[u]) != in.Dim {
			return nil, fmt.Errorf("core: plan u=%d has %d cells, want %d", u, len(in.Cells[u]), in.Dim)
		}
		plan.Cells[u] = make([]*Cell, in.Dim)
		for k, cj := range in.Cells[u] {
			cell, err := cellFromJSON(cj)
			if err != nil {
				return nil, fmt.Errorf("core: plan cell (u=%d, k=%d): %w", u, k, err)
			}
			plan.Cells[u][k] = cell
		}
	}
	return plan, nil
}

func cellFromJSON(cj cellJSON) (*Cell, error) {
	n := len(cj.Q)
	if n == 0 {
		return nil, errors.New("empty support")
	}
	for i := 1; i < n; i++ {
		if cj.Q[i] <= cj.Q[i-1] {
			return nil, fmt.Errorf("support not ascending at state %d", i)
		}
	}
	cell := &Cell{Q: cj.Q, Bary: cj.Bary, H: cj.H, Degenerate: cj.Degenerate}
	if err := checkMass("barycenter", cj.Bary, n); err != nil {
		return nil, err
	}
	for s := 0; s < 2; s++ {
		if err := checkMass(fmt.Sprintf("pmf[%d]", s), cj.PMF[s], n); err != nil {
			return nil, err
		}
		if err := checkMass(fmt.Sprintf("target[%d]", s), cj.Target[s], n); err != nil {
			return nil, err
		}
		if h := cj.H[s]; math.IsInf(h, 0) || !(h >= 0) {
			return nil, fmt.Errorf("bandwidth h[%d] = %v is not finite and non-negative", s, h)
		}
		cell.PMF[s] = cj.PMF[s]
		cell.Target[s] = cj.Target[s]
		plan, err := ot.NewPlan(n, n, cj.Plans[s])
		if err != nil {
			return nil, fmt.Errorf("plan[%d]: %w", s, err)
		}
		// Merged duplicate atoms can overflow, so the total is checked for
		// finiteness too: a finite total bounds every non-negative atom.
		if m := plan.TotalMass(); !(m > 0) || math.IsInf(m, 1) {
			return nil, fmt.Errorf("plan[%d] has total mass %v", s, m)
		}
		cell.Plans[s] = plan
	}
	return cell, nil
}

// checkMass validates one serialized pmf: n states, every mass finite and
// non-negative.
func checkMass(what string, pmf []float64, n int) error {
	if len(pmf) != n {
		return fmt.Errorf("%s has %d states, support has %d", what, len(pmf), n)
	}
	for i, v := range pmf {
		if math.IsInf(v, 0) || !(v >= 0) {
			return fmt.Errorf("%s state %d has mass %v", what, i, v)
		}
	}
	return nil
}
