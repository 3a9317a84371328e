package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// referenceRows is the decoder the row reader replaced — encoding/csv's
// Read and a []string row parser, one row at a time — with one change:
// errors name the physical line a row starts on (a csv.ParseError's
// StartLine, or FieldPos) where it named a row count. It returns the
// header (or its read error) and the rows it decoded up to the first
// failing one, whose error rowErr reports; what names a row in read errors
// as the row reader's caller does.
func referenceRows(data []byte, what string) (header []string, headerErr error, recs []Record, lines []int, rowErr error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.TrimLeadingSpace = true
	header, headerErr = cr.Read()
	if headerErr != nil || !validHeader(header) {
		return header, headerErr, nil, nil, nil
	}
	dim := len(header) - 2
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return header, nil, recs, lines, nil
		}
		if err != nil {
			line := 0
			if pe, ok := err.(*csv.ParseError); ok {
				line = pe.StartLine
			}
			return header, nil, recs, lines, fmt.Errorf("dataset: %s %d: %w", what, line, err)
		}
		line, _ := cr.FieldPos(0)
		rec, err := referenceParseRow(row, dim, line)
		if err != nil {
			return header, nil, recs, lines, err
		}
		recs = append(recs, rec)
		lines = append(lines, line)
	}
}

// referenceParseRow is the []string row parser: encoding/csv has already
// checked the field count.
func referenceParseRow(row []string, dim, line int) (Record, error) {
	rec := Record{X: make([]float64, dim)}
	sField := strings.TrimSpace(row[0])
	if sField == "" || sField == "?" {
		rec.S = SUnknown
	} else {
		s, err := strconv.Atoi(sField)
		if err != nil {
			return Record{}, fmt.Errorf("dataset: line %d: bad s %q", line, row[0])
		}
		rec.S = s
	}
	u, err := strconv.Atoi(strings.TrimSpace(row[1]))
	if err != nil {
		return Record{}, fmt.Errorf("dataset: line %d: bad u %q", line, row[1])
	}
	rec.U = u
	for k := 0; k < dim; k++ {
		v, err := strconv.ParseFloat(strings.TrimSpace(row[2+k]), 64)
		if err != nil {
			return Record{}, fmt.Errorf("dataset: line %d: bad feature %d %q", line, k, row[2+k])
		}
		rec.X[k] = v
	}
	return rec, nil
}

// referenceStream is what NewCSVStream and Next must yield for data: the
// records before the first error, and that error (nil after a clean EOF).
func referenceStream(data []byte) ([]Record, error) {
	header, headerErr, recs, _, err := referenceRows(data, "stream line")
	if headerErr != nil {
		return nil, fmt.Errorf("dataset: reading stream header: %w", headerErr)
	}
	if !validHeader(header) {
		return nil, fmt.Errorf("dataset: stream header must start with s,u, got %v", header)
	}
	return recs, err
}

// referenceTable is what ReadCSV must return for data: the rows, each
// validated as Table.Append validates it.
func referenceTable(data []byte) ([]Record, error) {
	header, headerErr, recs, lines, err := referenceRows(data, "line")
	if headerErr != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", headerErr)
	}
	if !validHeader(header) {
		return nil, fmt.Errorf("dataset: header must start with s,u followed by features, got %v", header)
	}
	for i, rec := range recs {
		if verr := rec.Validate(len(header) - 2); verr != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", lines[i], verr)
		}
	}
	return recs, err
}

// sameRecords fails t unless got and want hold the same labels and
// bitwise-equal features.
func sameRecords(t *testing.T, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, reference %d", what, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.S != w.S || g.U != w.U || len(g.X) != len(w.X) {
			t.Fatalf("%s record %d: %+v, reference %+v", what, i, g, w)
		}
		for k := range w.X {
			if math.Float64bits(g.X[k]) != math.Float64bits(w.X[k]) {
				t.Fatalf("%s record %d feature %d: %v, reference %v", what, i, k, g.X[k], w.X[k])
			}
		}
	}
}

// sameError fails t unless got and want are both nil or carry the same
// text.
func sameError(t *testing.T, what string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
		t.Fatalf("%s: error %v, reference %v", what, got, want)
	}
}

// streamRecords drains NewCSVStream over data: its dimension (0 when the
// header fails), the records before the first error, and that error (nil
// after a clean EOF).
func streamRecords(data []byte) (int, []Record, error) {
	in, err := NewCSVStream(bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	var recs []Record
	for {
		rec, err := in.Next()
		if err == io.EOF {
			return in.Dim(), recs, nil
		}
		if err != nil {
			return in.Dim(), recs, err
		}
		recs = append(recs, rec)
	}
}

// FuzzCSVStream is a differential target: NewCSVStream and ReadCSV must
// decode arbitrary bytes exactly as the encoding/csv reference does —
// the same records, features compared bitwise, or the same error text —
// and every row the stream accepts into a table must survive a WriteCSV →
// ReadCSV round trip unchanged.
func FuzzCSVStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dim, recs, err := streamRecords(data)
		wantRecs, wantErr := referenceStream(data)
		sameError(t, "CSVStream", err, wantErr)
		sameRecords(t, "CSVStream", recs, wantRecs)

		tbl, err := ReadCSV(bytes.NewReader(data))
		wantRecs, wantErr = referenceTable(data)
		sameError(t, "ReadCSV", err, wantErr)
		if err == nil {
			sameRecords(t, "ReadCSV", tbl.Records(), wantRecs)
		}

		if dim == 0 {
			return
		}
		table := MustTable(dim, nil)
		for _, rec := range recs {
			if table.Append(rec) != nil {
				break
			}
		}
		var buf bytes.Buffer
		if err := table.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-reading %q: %v", buf.Bytes(), err)
		}
		if back.Dim() != table.Dim() {
			t.Fatalf("round trip: dim %d, want %d", back.Dim(), table.Dim())
		}
		sameRecords(t, "round trip", back.Records(), table.Records())
	})
}

// FuzzResearchColumns is a differential target: ReadResearchColumns must
// accept and reject exactly the bytes ReadCSV does, with the same error
// text, and on accepted bytes hold the record count, names and group
// columns — features compared bitwise, an empty group's columns nil — of
// ReadCSV's table and its GroupColumns. Its seeds under
// testdata/fuzz/FuzzResearchColumns are FuzzResearchSet's research CSVs
// (internal/researchfeed).
func FuzzResearchColumns(f *testing.F) {
	// Every group, unknown s, a quoted row read by encoding/csv, -0.
	f.Add([]byte("s,u,a,b\n0,0,1,2\n,1,3,4\n1,0,5,6\n\"1\",1,7,8\n?,0,9,1e3\n0,1,-0,0.5\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rc, err := ReadResearchColumns(bytes.NewReader(data))
		tbl, wantErr := ReadCSV(bytes.NewReader(data))
		sameError(t, "ReadResearchColumns", err, wantErr)
		if err != nil {
			return
		}
		if rc.Records != tbl.Len() {
			t.Fatalf("%d records, ReadCSV %d", rc.Records, tbl.Len())
		}
		if !slices.Equal(rc.Names, tbl.Names()) {
			t.Fatalf("names %q, ReadCSV %q", rc.Names, tbl.Names())
		}
		sameColumns(t, rc.Cols, tbl.GroupColumns())
	})
}

// sameColumns fails t unless got and want have the same shape, nil-ness
// and bitwise-equal values.
func sameColumns(t *testing.T, got, want [2][2][][]float64) {
	t.Helper()
	for u := range want {
		for s := range want[u] {
			g, w := got[u][s], want[u][s]
			if len(g) != len(w) {
				t.Fatalf("group (u=%d,s=%d): %d columns, want %d", u, s, len(g), len(w))
			}
			for k := range w {
				if (g[k] == nil) != (w[k] == nil) || len(g[k]) != len(w[k]) {
					t.Fatalf("group (u=%d,s=%d) column %d: %d values (nil %v), want %d (nil %v)",
						u, s, k, len(g[k]), g[k] == nil, len(w[k]), w[k] == nil)
				}
				for i := range w[k] {
					if math.Float64bits(g[k][i]) != math.Float64bits(w[k][i]) {
						t.Fatalf("group (u=%d,s=%d) column %d value %d: %v, want %v", u, s, k, i, g[k][i], w[k][i])
					}
				}
			}
		}
	}
}
