// Package dataset provides the observation model of Section II of the
// paper: records z = {x, s, u} with a d-dimensional feature vector x, a
// binary protected attribute s (possibly unobserved), and a binary
// unprotected attribute u; tables of such records; the research/archive
// split; and (u,s)-group partitions that Algorithms 1 and 2 stratify over.
package dataset

import (
	"errors"
	"fmt"
	"math"
)

// SUnknown marks an unobserved protected attribute: archival data are
// S-unlabelled in the paper's general setting (Figure 1) until labels are
// estimated.
const SUnknown = -1

// Record is one composite observation z = {x, s, u}. S is 0, 1, or
// SUnknown; U is 0 or 1.
type Record struct {
	X []float64
	S int
	U int
}

// Validate checks label ranges and feature finiteness against dim.
func (r Record) Validate(dim int) error {
	if len(r.X) != dim {
		return fmt.Errorf("dataset: record has %d features, want %d", len(r.X), dim)
	}
	if r.S != 0 && r.S != 1 && r.S != SUnknown {
		return fmt.Errorf("dataset: invalid S label %d", r.S)
	}
	if r.U != 0 && r.U != 1 {
		return fmt.Errorf("dataset: invalid U label %d", r.U)
	}
	for k, v := range r.X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dataset: non-finite feature %d (%v)", k, v)
		}
	}
	return nil
}

// Group identifies a (u, s) sub-population, the stratification unit of the
// entire repair pipeline.
type Group struct {
	U, S int
}

// String renders the group for diagnostics, e.g. "(u=1,s=0)".
func (g Group) String() string { return fmt.Sprintf("(u=%d,s=%d)", g.U, g.S) }

// Groups enumerates the four labelled (u, s) groups in a fixed order.
func Groups() []Group {
	return []Group{{U: 0, S: 0}, {U: 0, S: 1}, {U: 1, S: 0}, {U: 1, S: 1}}
}

// Table is an in-memory collection of records sharing a feature dimension
// and (optionally) feature names.
type Table struct {
	dim     int
	names   []string
	records []Record
}

// NewTable creates an empty table of the given feature dimension. names is
// optional; when provided it must have dim entries.
func NewTable(dim int, names []string) (*Table, error) {
	if dim <= 0 {
		return nil, errors.New("dataset: table dimension must be positive")
	}
	if names != nil && len(names) != dim {
		return nil, fmt.Errorf("dataset: %d feature names for dimension %d", len(names), dim)
	}
	var cp []string
	if names != nil {
		cp = append([]string(nil), names...)
	} else {
		cp = make([]string, dim)
		for k := range cp {
			cp[k] = fmt.Sprintf("x%d", k+1)
		}
	}
	return &Table{dim: dim, names: cp}, nil
}

// MustTable is NewTable that panics on error.
func MustTable(dim int, names []string) *Table {
	t, err := NewTable(dim, names)
	if err != nil {
		panic(err)
	}
	return t
}

// Append validates and adds a record.
func (t *Table) Append(r Record) error {
	if err := r.Validate(t.dim); err != nil {
		return err
	}
	t.records = append(t.records, r)
	return nil
}

// AppendAll appends each record, stopping at the first invalid one.
func (t *Table) AppendAll(rs []Record) error {
	for i, r := range rs {
		if err := t.Append(r); err != nil {
			return fmt.Errorf("dataset: record %d: %w", i, err)
		}
	}
	return nil
}

// Len reports the number of records.
func (t *Table) Len() int { return len(t.records) }

// Dim reports the feature dimension.
func (t *Table) Dim() int { return t.dim }

// Names returns the feature names (not a copy).
func (t *Table) Names() []string { return t.names }

// At returns record i (the record's feature slice is shared, not copied).
func (t *Table) At(i int) Record { return t.records[i] }

// Records returns the backing slice (not a copy); callers must not resize.
func (t *Table) Records() []Record { return t.records }

// Clone deep-copies the table, including feature vectors.
func (t *Table) Clone() *Table {
	out := &Table{dim: t.dim, names: append([]string(nil), t.names...)}
	out.records = make([]Record, len(t.records))
	for i, r := range t.records {
		out.records[i] = Record{X: append([]float64(nil), r.X...), S: r.S, U: r.U}
	}
	return out
}

// Partition maps each labelled (u,s) group to the indices of its records.
// Records with unknown S are returned under the second value keyed by u.
func (t *Table) Partition() (labelled map[Group][]int, unlabelled map[int][]int) {
	labelled = make(map[Group][]int)
	unlabelled = make(map[int][]int)
	for i, r := range t.records {
		if r.S == SUnknown {
			unlabelled[r.U] = append(unlabelled[r.U], i)
			continue
		}
		g := Group{U: r.U, S: r.S}
		labelled[g] = append(labelled[g], i)
	}
	return labelled, unlabelled
}

// GroupColumn extracts feature k of every record in the (u,s) group.
func (t *Table) GroupColumn(g Group, k int) []float64 {
	if k < 0 || k >= t.dim {
		panic(fmt.Sprintf("dataset: feature %d out of range %d", k, t.dim))
	}
	var out []float64
	for _, r := range t.records {
		if r.U == g.U && r.S == g.S {
			out = append(out, r.X[k])
		}
	}
	return out
}

// GroupColumns splits the table into the feature columns of the four
// labelled groups: cols[u][s][k] holds what GroupColumn(Group{U: u, S: s},
// k) returns — the same values in record order, nil for an empty group —
// with records of unknown s (or labels outside {0,1}) skipped. It reads
// the features once, where a GroupColumn per (u, s, k) reads every record
// 4·d times; each group's d columns are carved from one allocation.
func (t *Table) GroupColumns() (cols [2][2][][]float64) {
	var n [2][2]int
	for _, r := range t.records {
		if labelled(r) {
			n[r.U][r.S]++
		}
	}
	var next [2][2]int
	for u := range cols {
		for s := range cols[u] {
			cols[u][s] = make([][]float64, t.dim)
			size := n[u][s]
			if size == 0 {
				continue
			}
			buf := make([]float64, size*t.dim)
			for k := range cols[u][s] {
				cols[u][s][k] = buf[k*size : (k+1)*size : (k+1)*size]
			}
		}
	}
	for _, r := range t.records {
		if !labelled(r) {
			continue
		}
		g, i := cols[r.U][r.S], next[r.U][r.S]
		next[r.U][r.S]++
		for k, col := range g {
			col[i] = r.X[k]
		}
	}
	return cols
}

// labelled reports whether r belongs to one of the four (u, s) groups.
func labelled(r Record) bool {
	return (r.U == 0 || r.U == 1) && (r.S == 0 || r.S == 1)
}

// UColumn extracts feature k of every record with the given u, regardless
// of s — the pooled column that Algorithm 1 line 4 ranges over.
func (t *Table) UColumn(u, k int) []float64 {
	if k < 0 || k >= t.dim {
		panic(fmt.Sprintf("dataset: feature %d out of range %d", k, t.dim))
	}
	var out []float64
	for _, r := range t.records {
		if r.U == u {
			out = append(out, r.X[k])
		}
	}
	return out
}

// Counts tallies the group sizes; unknown-S records count under
// Group{U: u, S: SUnknown}.
func (t *Table) Counts() map[Group]int {
	out := make(map[Group]int)
	for _, r := range t.records {
		out[Group{U: r.U, S: r.S}]++
	}
	return out
}

// Shuffler is the subset of rng.RNG the split needs; declared locally to
// keep dataset free of a direct dependency on the rng package.
type Shuffler interface {
	Perm(n int) []int
}

// Split partitions the table into a research set of size nResearch and an
// archive holding the rest, sampling uniformly without replacement — the
// paper's nR ≪ nA research/archive split (Section II).
func (t *Table) Split(r Shuffler, nResearch int) (research, archive *Table, err error) {
	if nResearch < 0 || nResearch > len(t.records) {
		return nil, nil, fmt.Errorf("dataset: research size %d outside [0, %d]", nResearch, len(t.records))
	}
	perm := r.Perm(len(t.records))
	research = &Table{dim: t.dim, names: append([]string(nil), t.names...)}
	archive = &Table{dim: t.dim, names: append([]string(nil), t.names...)}
	for i, idx := range perm {
		if i < nResearch {
			research.records = append(research.records, t.records[idx])
		} else {
			archive.records = append(archive.records, t.records[idx])
		}
	}
	return research, archive, nil
}

// DropS returns a copy of the table with every protected label erased —
// the archival observation model zA = {xA, uA} of Section II.
func (t *Table) DropS() *Table {
	out := t.Clone()
	for i := range out.records {
		out.records[i].S = SUnknown
	}
	return out
}

// FeatureMatrix returns the n×d feature matrix (rows share the records'
// slices; callers must not mutate).
func (t *Table) FeatureMatrix() [][]float64 {
	out := make([][]float64, len(t.records))
	for i, r := range t.records {
		out[i] = r.X
	}
	return out
}
