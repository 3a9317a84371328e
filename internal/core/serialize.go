package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strconv"
	"sync"

	"otfair/internal/atof"
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

// WriteJSON serializes the plan: its canonical bytes, in one write. The
// bytes are encoded into a pooled buffer, so serving a dense plan of
// megabytes again and again does not allocate its encoding each time.
func (p *Plan) WriteJSON(w io.Writer) error {
	bp := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bp)
	raw, err := p.appendCanonical((*bp)[:0])
	if err != nil {
		return err
	}
	*bp = raw
	_, err = w.Write(raw)
	return err
}

// encodeBufs recycles WriteJSON's encoding buffers.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// MarshalCanonical returns the plan's canonical serialized form — exactly
// the bytes WriteJSON emits. Group-size keys are sorted and the cell
// slices are in fixed (u, k) order, so the bytes are a pure function of
// the plan's content: equal plans serialize identically, which is what
// lets the plan store key on a content hash of this buffer. The hash is
// taken once per plan: the first call records it, so Fingerprint (and the
// store's Put, which reads it from there) costs no hashing after it.
func (p *Plan) MarshalCanonical() ([]byte, error) {
	raw, err := p.appendCanonical(nil)
	if err != nil {
		return nil, err
	}
	if p.fingerprint.Load() == nil {
		id := FingerprintBytes(raw)
		p.fingerprint.Store(&id)
	}
	return raw, nil
}

// Fingerprint returns the 128-bit content hash of the canonical serialized
// plan as a 32-character lowercase hex ID — the key the disk-backed plan
// store and the serving layer address plans by. Plans with identical
// content (including options) share a fingerprint; any semantic change
// yields a new one. A plan the store has Put, or that was fingerprinted
// before, returns the hash MarshalCanonical recorded without encoding
// again (a Plan is immutable, see its doc).
func (p *Plan) Fingerprint() (string, error) {
	if id := p.fingerprint.Load(); id != nil {
		return *id, nil
	}
	if _, err := p.MarshalCanonical(); err != nil {
		return "", err
	}
	return *p.fingerprint.Load(), nil
}

// appendCanonical encodes the plan without reflection into exactly what
// json.NewEncoder(w).Encode writes for its planJSON, trailing newline
// included: fields in planJSON's order with its omitempty rules, a nil
// slice as null and an empty one as [], the group-size keys sorted.
// Floats go through atof.AppendJSON; the few strings go through
// encoding/json, so their escaping is the same by construction. A NaN or
// ±Inf anywhere fails it with encoding/json's error for the first one.
// It appends to b, first growing it to the size bound of the plan, so a
// dense plan of megabytes is not regrown.
func (p *Plan) appendCanonical(b []byte) ([]byte, error) {
	e := planEncoder{b: slices.Grow(b, p.canonicalSizeHint())}
	e.raw(`{"version":`)
	e.int(planVersion)
	e.raw(`,"dim":`)
	e.int(p.Dim)
	e.raw(`,"names":`)
	e.json(p.Names)
	o := p.Opts
	e.raw(`,"options":{"nq":`)
	e.int(o.NQ)
	e.raw(`,"t":`)
	e.float(o.T)
	e.raw(`,"amount":`)
	e.float(o.Amount)
	e.raw(`,"kernel":`)
	e.json(o.Kernel.String())
	e.raw(`,"bandwidth":`)
	e.json(o.Bandwidth.String())
	e.raw(`,"solver":`)
	e.json(o.Solver.String())
	e.raw(`,"target":`)
	e.json(o.Target.String())
	e.raw(`,"barycenter":`)
	e.json(o.Barycenter.String())
	if o.SinkhornEpsilon != 0 {
		e.raw(`,"sinkhorn_epsilon":`)
		e.float(o.SinkhornEpsilon)
	}
	e.raw(`},"group_sizes":{`)
	sizes := make(map[string]int, len(p.GroupSizes))
	//otfair:nondet-ok map-to-map copy; the keys are written sorted below
	for g, n := range p.GroupSizes {
		sizes[groupKey(g)] = n
	}
	for i, key := range slices.Sorted(maps.Keys(sizes)) {
		if i > 0 {
			e.raw(",")
		}
		e.json(key)
		e.raw(":")
		e.int(sizes[key])
	}
	e.raw(`},"cells":[`)
	for u := range p.Cells {
		if u > 0 {
			e.raw(",")
		}
		e.raw("[")
		for k, c := range p.Cells[u] {
			if k > 0 {
				e.raw(",")
			}
			e.cell(c)
		}
		e.raw("]")
	}
	e.raw("]}\n")
	if e.err != nil {
		return nil, e.err
	}
	return e.b, nil
}

// cell appends one cellJSON object.
func (e *planEncoder) cell(c *Cell) {
	e.raw(`{"q":`)
	e.floats(c.Q)
	e.raw(`,"pmf":[`)
	e.floats(c.PMF[0])
	e.raw(",")
	e.floats(c.PMF[1])
	e.raw(`],"bary":`)
	e.floats(c.Bary)
	e.raw(`,"target":[`)
	e.floats(c.Target[0])
	e.raw(",")
	e.floats(c.Target[1])
	e.raw(`],"plans":[`)
	e.entries(c.Plans[0].Entries())
	e.raw(",")
	e.entries(c.Plans[1].Entries())
	e.raw(`],"h":[`)
	e.float(c.H[0])
	e.raw(",")
	e.float(c.H[1])
	e.raw("]")
	if c.Degenerate {
		e.raw(`,"degenerate":true`)
	}
	e.raw("}")
}

// canonicalSizeHint bounds the canonical size from above: 26 bytes per
// float and separator (the longest float text, a negative value six
// places below the point, is 25 bytes), and per plan atom its float, its
// two indices and 20 bytes of punctuation, plus slack for the header,
// names and per-cell keys.
func (p *Plan) canonicalSizeHint() int {
	n := 512
	for _, name := range p.Names {
		n += 8 + 6*len(name) // \u00XX escaping at worst
	}
	for u := range p.Cells {
		for _, c := range p.Cells[u] {
			if c == nil {
				continue
			}
			floats := len(c.Q) + len(c.Bary) + 2
			atoms := 0
			for s := 0; s < 2; s++ {
				floats += len(c.PMF[s]) + len(c.Target[s])
				if c.Plans[s] != nil {
					atoms += c.Plans[s].NNZ()
				}
			}
			index := len(strconv.Itoa(len(c.Q)))
			n += 128 + 26*floats + atoms*(26+20+2*index)
		}
	}
	return n
}

// planEncoder appends canonical plan JSON. The first non-finite float
// sets err; the bytes are discarded then.
type planEncoder struct {
	b   []byte
	err error
}

func (e *planEncoder) raw(s string) { e.b = append(e.b, s...) }

func (e *planEncoder) int(n int) { e.b = strconv.AppendInt(e.b, int64(n), 10) }

func (e *planEncoder) float(v float64) {
	if err := atof.CheckJSON(v); err != nil {
		if e.err == nil {
			e.err = err
		}
		return
	}
	e.b = atof.AppendJSON(e.b, v)
}

func (e *planEncoder) floats(xs []float64) {
	if xs == nil {
		e.raw("null")
		return
	}
	e.b = append(e.b, '[')
	for i, v := range xs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.float(v)
	}
	e.b = append(e.b, ']')
}

// entries appends a plan's atoms as ot.Entry objects.
func (e *planEncoder) entries(es []ot.Entry) {
	if es == nil {
		e.raw("null")
		return
	}
	e.b = append(e.b, '[')
	for i, a := range es {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.raw(`{"I":`)
		e.int(a.I)
		e.raw(`,"J":`)
		e.int(a.J)
		e.raw(`,"Mass":`)
		e.float(a.Mass)
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, ']')
}

// json appends a string or string slice as encoding/json writes it.
func (e *planEncoder) json(v any) {
	// Strings and string slices always marshal; invalid UTF-8 becomes
	// U+FFFD rather than an error.
	raw, _ := json.Marshal(v)
	e.b = append(e.b, raw...)
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
