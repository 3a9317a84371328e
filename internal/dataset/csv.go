package dataset

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// CSV layout: header "s,u,<feature names...>"; S is written as an empty
// field when unknown. This is the interchange format of the fairrepair CLI.

// WriteCSV writes the table with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := WriteCSVHeader(bw, t.names); err != nil {
		return fmt.Errorf("dataset: writing header: %w", err)
	}
	var line []byte
	for i, r := range t.records {
		line = AppendCSVRecord(line[:0], r)
		if _, err := bw.Write(line); err != nil {
			return fmt.Errorf("dataset: writing record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// WriteCSVHeader writes the "s,u,<names...>" header row, quoting names the
// way encoding/csv does.
func WriteCSVHeader(w io.Writer, names []string) error {
	cw := csv.NewWriter(w)
	cw.Write(append([]string{"s", "u"}, names...))
	cw.Flush()
	return cw.Error()
}

// AppendCSVRecord appends one record as a data row in the WriteCSV layout,
// newline included: the bytes encoding/csv writes for the fields
// Itoa(s) (empty when unknown), Itoa(u) and FormatFloat(x, 'g', -1, 64).
// None of those fields ever needs quoting, so no csv.Writer is involved.
func AppendCSVRecord(b []byte, r Record) []byte {
	if r.S != SUnknown {
		b = strconv.AppendInt(b, int64(r.S), 10)
	}
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.U), 10)
	for _, v := range r.X {
		b = append(b, ',')
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, '\n')
}

// ReadCSV parses a table from the WriteCSV layout.
func ReadCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	if len(header) < 3 || strings.TrimSpace(header[0]) != "s" || strings.TrimSpace(header[1]) != "u" {
		return nil, fmt.Errorf("dataset: header must start with s,u followed by features, got %v", header)
	}
	dim := len(header) - 2
	t, err := NewTable(dim, header[2:])
	if err != nil {
		return nil, err
	}
	line := 1
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line+1, err)
		}
		line++
		rec, err := parseRow(row, dim, line)
		if err != nil {
			return nil, err
		}
		if err := t.Append(rec); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
	}
	return t, nil
}

func parseRow(row []string, dim, line int) (Record, error) {
	if len(row) != dim+2 {
		return Record{}, fmt.Errorf("dataset: line %d has %d fields, want %d", line, len(row), dim+2)
	}
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
