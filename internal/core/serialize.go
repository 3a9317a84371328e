package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
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
// A plan read from a store (ReadStoredPlan) has its first call check the
// id it was read under instead, and fail if the bytes hash otherwise, so
// its bytes are never stored under that id.
func (p *Plan) MarshalCanonical() ([]byte, error) { return p.AppendCanonical(nil) }

// AppendCanonical is MarshalCanonical appending to b: it returns b
// extended by the canonical bytes, and records or checks the fingerprint
// of those bytes alone as MarshalCanonical does.
func (p *Plan) AppendCanonical(b []byte) ([]byte, error) {
	raw, err := p.appendCanonical(b)
	if err != nil {
		return nil, err
	}
	switch id, own := p.fingerprint.Load(), raw[len(b):]; {
	case id == nil:
		h := FingerprintBytes(own)
		p.fingerprint.Store(&h)
	case p.unchecked.Load():
		if got := FingerprintBytes(own); got != *id {
			return nil, fmt.Errorf("core: plan stored as %s is not canonical JSON (its canonical bytes hash to %s)", *id, got)
		}
		p.unchecked.Store(false)
	}
	return raw, nil
}

// Fingerprint returns the 128-bit content hash of the canonical serialized
// plan as a 32-character lowercase hex ID — the key the disk-backed plan
// store and the serving layer address plans by. Plans with identical
// content (including options) share a fingerprint; any semantic change
// yields a new one. A plan the store has Put, or that was fingerprinted
// before, returns the hash MarshalCanonical recorded without encoding
// again (a Plan is immutable, see its doc); a first call hashes the plan
// through a pooled buffer.
func (p *Plan) Fingerprint() (string, error) {
	if id := p.fingerprint.Load(); id != nil {
		return *id, nil
	}
	bp := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bp)
	raw, err := p.AppendCanonical((*bp)[:0])
	if err != nil {
		return "", err
	}
	*bp = raw
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
	if hint := p.canonicalSizeHint(); cap(b)-len(b) < hint {
		b = append(make([]byte, 0, len(b)+hint), b...)
	}
	e := planEncoder{b: b}
	e.raw(`{"version":`)
	e.int(planVersion)
	e.raw(`,"dim":`)
	e.int(p.Dim)
	e.raw(`,"names":`)
	e.strs(p.Names)
	o := p.Opts
	e.raw(`,"options":{"nq":`)
	e.int(o.NQ)
	e.raw(`,"t":`)
	e.float(o.T)
	e.raw(`,"amount":`)
	e.float(o.Amount)
	e.raw(`,"kernel":`)
	e.str(o.Kernel.String())
	e.raw(`,"bandwidth":`)
	e.str(o.Bandwidth.String())
	e.raw(`,"solver":`)
	e.str(o.Solver.String())
	e.raw(`,"target":`)
	e.str(o.Target.String())
	e.raw(`,"barycenter":`)
	e.str(o.Barycenter.String())
	if o.SinkhornEpsilon != 0 {
		e.raw(`,"sinkhorn_epsilon":`)
		e.float(o.SinkhornEpsilon)
	}
	e.raw(`},"group_sizes":{`)
	e.groupSizes(p.GroupSizes)
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

// groupSizes appends the group_sizes members, keys sorted. The four
// labelled groups' keys ("u0s0" < "u0s1" < "u1s0" < "u1s1") sort in
// dataset.Groups order, so only a plan holding another group — none that
// Design or ReadPlan returns — sorts its keys; and a key, groupKey's
// text, is written without building it.
func (e *planEncoder) groupSizes(sizes map[dataset.Group]int) {
	groups := dataset.Groups()
	//otfair:nondet-ok looks for any unlabelled group; the order read is sorted below
	for g := range sizes {
		if (g.U != 0 && g.U != 1) || (g.S != 0 && g.S != 1) {
			groups = slices.SortedFunc(maps.Keys(sizes), func(a, b dataset.Group) int {
				return strings.Compare(groupKey(a), groupKey(b))
			})
			break
		}
	}
	sep := ""
	for _, g := range groups {
		if n, ok := sizes[g]; ok {
			e.raw(sep)
			sep = ","
			e.raw(`"u`)
			e.int(g.U)
			e.raw("s")
			e.int(g.S)
			e.raw(`":`)
			e.int(n)
		}
	}
}

// cell appends one cellJSON object. The fragment is a pure function of
// the immutable *Cell, so it is memoized there — from the second encode
// on: the first error-free encode only sets encoded, the second stores a
// copy of the bytes it wrote, and every later one appends that copy. A
// cell encoded once (each cell of a fresh design, Put once) retains
// nothing; one encoded again retains one copy of its fragment. A cell
// holding a NaN or ±Inf stores nothing and fails every encode alike.
// Racing encoders may both store a copy; the bytes are identical.
func (e *planEncoder) cell(c *Cell) {
	if frag := c.frag.Load(); frag != nil {
		e.b = append(e.b, *frag...)
		return
	}
	start, prior := len(e.b), e.err
	e.err = nil
	e.cellFields(c)
	if e.err != nil {
		e.err = cmp.Or(prior, e.err)
		return
	}
	e.err = prior
	if c.encoded.Swap(true) {
		frag := slices.Clone(e.b[start:])
		c.frag.Store(&frag)
	}
}

// cellFields writes a cell's fragment.
func (e *planEncoder) cellFields(c *Cell) {
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
			if frag := c.frag.Load(); frag != nil {
				n += len(*frag) + 1
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

// strs appends a string slice as encoding/json writes it.
func (e *planEncoder) strs(ss []string) {
	if ss == nil {
		e.raw("null")
		return
	}
	e.b = append(e.b, '[')
	for i, s := range ss {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.str(s)
	}
	e.b = append(e.b, ']')
}

// str appends a string as encoding/json writes it. A string of printable
// ASCII other than the characters encoding/json escapes (the quote, the
// backslash and its HTML-safe <, > and &) is copied between quotes; any
// other goes through encoding/json itself, so the escaping is the same by
// construction.
func (e *planEncoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// Strings always marshal; invalid UTF-8 becomes U+FFFD rather
			// than an error.
			raw, _ := json.Marshal(s)
			e.b = append(e.b, raw...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// FingerprintBytes is the fingerprint of an already-serialized canonical
// plan. It is the single definition of the hash-to-ID encoding: callers
// that hold the bytes (the plan store's Put) and Fingerprint must agree,
// or content addressing breaks. The ID is the two hash words as 16
// lowercase hex digits each, high word first.
func FingerprintBytes(raw []byte) string {
	h := ot.HashBytes(raw)
	var words [16]byte
	binary.BigEndian.PutUint64(words[:8], h[0])
	binary.BigEndian.PutUint64(words[8:], h[1])
	var id [32]byte
	hex.Encode(id[:], words[:])
	return string(id[:])
}

// ReadStoredPlan is ReadPlan over the bytes a content-addressed store
// holds under id, which its read path has just checked is
// FingerprintBytes(raw). The plan keeps id as its fingerprint, so
// Fingerprint does not encode the plan again to learn what the store
// already verified. Bytes the store wrote are canonical, so id is also
// the hash of the plan's canonical encoding. A file placed under its own
// hash by hand that is not canonical JSON still loads and answers to the
// id it is stored under, but its MarshalCanonical fails, so the plan
// store never writes its canonical bytes under that id.
func ReadStoredPlan(raw []byte, id string) (*Plan, error) {
	p, err := ReadPlan(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	p.fingerprint.Store(&id)
	p.unchecked.Store(true)
	return p, nil
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
