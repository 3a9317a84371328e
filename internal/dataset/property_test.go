package dataset

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"otfair/internal/rng"
)

// randomTable builds a random valid table from a seed for property tests.
func randomTable(seed uint64) *Table {
	r := rng.New(seed)
	dim := 1 + r.IntN(4)
	t := MustTable(dim, nil)
	n := 1 + r.IntN(60)
	for i := 0; i < n; i++ {
		rec := Record{X: make([]float64, dim), U: r.IntN(2)}
		switch r.IntN(3) {
		case 0:
			rec.S = 0
		case 1:
			rec.S = 1
		default:
			rec.S = SUnknown
		}
		for k := range rec.X {
			// Exercise exponents and negatives but stay finite.
			rec.X[k] = (r.Float64() - 0.5) * math.Pow(10, float64(r.IntN(13)-6))
		}
		if err := t.Append(rec); err != nil {
			panic(err)
		}
	}
	return t
}

func TestPropertyCSVRoundTripExact(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		orig := randomTable(seed)
		var buf bytes.Buffer
		if err := orig.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		if back.Len() != orig.Len() || back.Dim() != orig.Dim() {
			return false
		}
		for i := 0; i < orig.Len(); i++ {
			a, b := orig.At(i), back.At(i)
			if a.S != b.S || a.U != b.U {
				return false
			}
			for k := range a.X {
				// 'g'/-1 formatting is lossless for float64.
				if a.X[k] != b.X[k] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestPropertySplitPartitions(t *testing.T) {
	err := quick.Check(func(seed uint64, frac uint8) bool {
		tbl := randomTable(seed)
		r := rng.New(seed + 1)
		nR := int(frac) % (tbl.Len() + 1)
		research, archive, err := tbl.Split(r, nR)
		if err != nil {
			return false
		}
		return research.Len()+archive.Len() == tbl.Len() && research.Len() == nR
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestPropertyPartitionCoversLabelled(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		tbl := randomTable(seed)
		labelled, unlabelled := tbl.Partition()
		count := 0
		for _, idx := range labelled {
			count += len(idx)
		}
		for _, idx := range unlabelled {
			count += len(idx)
		}
		return count == tbl.Len()
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestPropertyCountsConsistent(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		tbl := randomTable(seed)
		total := 0
		for _, n := range tbl.Counts() {
			total += n
		}
		return total == tbl.Len()
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyGroupColumnsMatchGroupColumn: the one-pass split holds, for
// every (u, s, k), exactly what GroupColumn returns — values, record order,
// nil for an empty group — on random tables with unknown-s records, and
// with records relabelled outside {0,1} through Records, which both skip.
func TestPropertyGroupColumnsMatchGroupColumn(t *testing.T) {
	err := quick.Check(func(seed uint64, odd uint8) bool {
		tbl := randomTable(seed)
		recs := tbl.Records()
		if i := int(odd) % (len(recs) + 1); i < len(recs) {
			recs[i].S = 2
		}
		if i := int(odd/2) % (len(recs) + 1); i < len(recs) {
			recs[i].U = 3
		}
		cols := tbl.GroupColumns()
		for u := 0; u < 2; u++ {
			for s := 0; s < 2; s++ {
				if len(cols[u][s]) != tbl.Dim() {
					return false
				}
				for k := 0; k < tbl.Dim(); k++ {
					want := tbl.GroupColumn(Group{U: u, S: s}, k)
					got := cols[u][s][k]
					if (got == nil) != (want == nil) || len(got) != len(want) || cap(got) != len(got) {
						return false
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							return false
						}
					}
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}
