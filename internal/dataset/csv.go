package dataset

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"otfair/internal/atof"
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
		line = AppendCSVRecord(line[:0], r, appendFeature)
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
// Itoa(s) (empty when unknown), Itoa(u) and, for each feature k, the text
// feature(b, u, k, x) appends. With the plain formatter WriteCSV passes,
// FormatFloat(x, 'g', -1, 64), none of those fields ever needs quoting, so
// no csv.Writer is involved; a feature func must append that same text.
func AppendCSVRecord(b []byte, r Record, feature func(b []byte, u, k int, x float64) []byte) []byte {
	if r.S != SUnknown {
		b = strconv.AppendInt(b, int64(r.S), 10)
	}
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.U), 10)
	for k, v := range r.X {
		b = append(b, ',')
		b = feature(b, r.U, k, v)
	}
	return append(b, '\n')
}

// appendFeature is the plain feature formatter of the WriteCSV layout.
func appendFeature(b []byte, _, _ int, x float64) []byte {
	return strconv.AppendFloat(b, x, 'g', -1, 64)
}

// ReadCSV parses a table from the WriteCSV layout with the same row
// reader CSVStream uses, so a table and a stream over the same bytes
// decode alike.
func ReadCSV(r io.Reader) (*Table, error) {
	rows, header, err := newRowReader(r, "line")
	if err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	if !validHeader(header) {
		return nil, fmt.Errorf("dataset: header must start with s,u followed by features, got %v", header)
	}
	t, err := NewTable(rows.dim, header[2:])
	if err != nil {
		return nil, err
	}
	for {
		rec, line, err := rows.next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		if err := t.Append(rec); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
	}
}

// ResearchColumns is a research set held as the feature columns of its
// four labelled (u, s) groups, the form Algorithm 1 reads it in.
type ResearchColumns struct {
	// Names are the feature names, one per column of a group.
	Names []string
	// Records counts every record of the set, those of unknown s included.
	Records int
	// Cols[u][s][k] is feature k of group (u, s) in record order, as
	// Table.GroupColumns returns it: d columns per group, nil for an
	// empty group.
	Cols [2][2][][]float64
}

// ReadResearchColumns reads a research set in the WriteCSV layout straight
// into its group columns, with no table and no per-record feature vector
// in between. It accepts and rejects exactly the bytes ReadCSV does, with
// the same error text, and its Cols equal ReadCSV(r).GroupColumns().
func ReadResearchColumns(r io.Reader) (*ResearchColumns, error) {
	rows, header, err := newRowReader(r, "line")
	if err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	if !validHeader(header) {
		return nil, fmt.Errorf("dataset: header must start with s,u followed by features, got %v", header)
	}
	rc := &ResearchColumns{Names: header[2:]}
	for u := range rc.Cols {
		for s := range rc.Cols[u] {
			rc.Cols[u][s] = make([][]float64, rows.dim)
		}
	}
	x := make([]float64, rows.dim)
	for {
		line, err := rows.nextRow()
		if err == io.EOF {
			return rc, nil
		}
		if err != nil {
			return nil, err
		}
		rec, err := rows.parseRow(line, x)
		if err != nil {
			return nil, err
		}
		// Table.Append's check, so a record is refused as ReadCSV refuses it.
		if err := rec.Validate(rows.dim); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		rc.Records++
		if rec.S == SUnknown {
			continue
		}
		g := rc.Cols[rec.U][rec.S]
		for k, v := range x {
			g[k] = append(g[k], v)
		}
	}
}

// validHeader reports whether a header row is "s,u" and at least one
// feature name.
func validHeader(header []string) bool {
	return len(header) >= 3 && strings.TrimSpace(header[0]) == "s" && strings.TrimSpace(header[1]) == "u"
}

// rowBufSize is the row reader's buffer: a row must fit in it, newline
// included, to be scanned; a longer one is read by encoding/csv.
const rowBufSize = 64 << 10

// slabRecords is the number of records' features one chunk holds.
const slabRecords = 64

// rowReader reads the data rows of the WriteCSV layout. It accepts exactly
// the bytes encoding/csv accepts (TrimLeadingSpace, a field count fixed by
// the header), yields the same records and fails with the same error text,
// but splits a row itself whenever it can:
//
//   - a row whose bytes are all ASCII and hold no '"' is scanned in place
//     in the read buffer: split on ',', with "\r\n" read as "\n", blank
//     lines skipped and a final line without a newline still read;
//   - any other row — a quote, a non-ASCII byte (where encoding/csv trims
//     Unicode space), a row longer than the buffer — is read by
//     encoding/csv, which shares the buffer, so the choice is made per row
//     and never changes a result.
//
// Errors name the physical line a row starts on.
type rowReader struct {
	br  *bufio.Reader
	cr  *csv.Reader
	dim int
	// what names a row in a read error: "line" or "stream line".
	what string
	// scanned counts the lines the scanner consumed and csvLine the last
	// line encoding/csv consumed, in its own numbering, which cannot see
	// the scanned ones: a line's physical number is the sum.
	scanned, csvLine int
	fields           [][]byte
	// slab is the unused tail of the current feature chunk. Each record's
	// X is carved from it and handed out exactly once: records outlive
	// next (tables, and the serving layer's record windows, keep them), so
	// a chunk is never rewound or reused.
	slab []float64
}

// newRowReader reads the header row with encoding/csv and returns a reader
// over the rows after it. The header sets the field count every row must
// have; the caller checks its shape.
func newRowReader(r io.Reader, what string) (*rowReader, []string, error) {
	br := bufio.NewReaderSize(r, rowBufSize)
	// csv.NewReader keeps a *bufio.Reader of at least 4096 bytes instead
	// of wrapping it, so the scanner and encoding/csv read one buffer.
	cr := csv.NewReader(br)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, nil, err
	}
	first, _ := cr.FieldPos(0)
	rows := &rowReader{br: br, cr: cr, dim: len(header) - 2, what: what, csvLine: first + newlines(header)}
	return rows, header, nil
}

// errLongLine reports a line that does not fit in the read buffer.
var errLongLine = errors.New("dataset: line longer than the read buffer")

// next returns the next record and the physical line its row starts on,
// or io.EOF after the last row. The record's X is carved from the slab.
func (rr *rowReader) next() (Record, int, error) {
	line, err := rr.nextRow()
	if err != nil {
		return Record{}, line, err
	}
	if len(rr.slab) < rr.dim {
		rr.slab = make([]float64, rr.dim*slabRecords)
	}
	rec, err := rr.parseRow(line, rr.slab[:rr.dim:rr.dim])
	if err != nil {
		return Record{}, line, err
	}
	rr.slab = rr.slab[rr.dim:]
	return rec, line, nil
}

// nextRow cuts the next row into rr.fields and returns the physical line
// it starts on, or io.EOF after the last row.
func (rr *rowReader) nextRow() (int, error) {
	for {
		content, size, err := rr.peekLine()
		if err == io.EOF {
			return 0, io.EOF
		}
		if err == errLongLine || err == nil && !rr.split(content) {
			return rr.readCSVRow()
		}
		line := rr.scanned + rr.csvLine + 1
		if err != nil {
			return line, fmt.Errorf("dataset: %s %d: %w", rr.what, line, err)
		}
		// The line is buffered, so Discard cannot fail, and the fields
		// stay valid until the next read.
		_, _ = rr.br.Discard(size)
		rr.scanned++
		if len(content) == 0 {
			continue // a blank line, which encoding/csv skips too
		}
		if len(rr.fields) != rr.dim+2 {
			return line, fmt.Errorf("dataset: %s %d: %w", rr.what, line,
				&csv.ParseError{StartLine: line, Line: line, Column: 1, Err: csv.ErrFieldCount})
		}
		return line, nil
	}
}

// peekLine returns the next line in the buffer without consuming it: its
// content, without the "\n" or "\r\n" that ends it (or the "\r" ending
// the input, which encoding/csv drops too), and the bytes it occupies. It
// returns errLongLine for a line that does not fit in the buffer and
// io.EOF when the input is exhausted.
func (rr *rowReader) peekLine() (content []byte, size int, err error) {
	searched := 0
	for {
		buf, _ := rr.br.Peek(rr.br.Buffered())
		if i := bytes.IndexByte(buf[searched:], '\n'); i >= 0 {
			size = searched + i + 1
			content = buf[:size-1]
			if n := len(content); n > 0 && content[n-1] == '\r' {
				content = content[:n-1]
			}
			return content, size, nil
		}
		searched = len(buf)
		if searched == rr.br.Size() {
			return nil, 0, errLongLine
		}
		// Fill at least one more byte; at the end of the input the rest is
		// the final line.
		if buf, err = rr.br.Peek(searched + 1); err == io.EOF && len(buf) > 0 {
			content = buf
			if n := len(content); content[n-1] == '\r' {
				content = content[:n-1]
			}
			return content, len(buf), nil
		} else if err != nil {
			return nil, 0, err
		}
	}
}

// Byte classes for split: a field separator, and a byte that sends the
// row to encoding/csv ('"' and every non-ASCII byte).
const (
	byteComma = 1
	byteCSV   = 2
)

var rowBytes = func() (class [256]uint8) {
	class[','] = byteComma
	class['"'] = byteCSV
	for c := utf8.RuneSelf; c < len(class); c++ {
		class[c] = byteCSV
	}
	return class
}()

// split cuts a scannable row into rr.fields, leading space trimmed as
// encoding/csv trims it, reporting false for a row the scanner leaves to
// encoding/csv: one with a '"' or a non-ASCII byte.
func (rr *rowReader) split(b []byte) bool {
	rr.fields = rr.fields[:0]
	start := 0
	for i, c := range b {
		if class := rowBytes[c]; class != 0 {
			if class == byteCSV {
				return false
			}
			rr.fields = append(rr.fields, trimLeftSpace(b[start:i]))
			start = i + 1
		}
	}
	rr.fields = append(rr.fields, trimLeftSpace(b[start:]))
	return true
}

// trimLeftSpace trims the ASCII bytes unicode.IsSpace accepts from the
// front of an ASCII field.
func trimLeftSpace(f []byte) []byte {
	for len(f) > 0 && (f[0] == ' ' || '\t' <= f[0] && f[0] <= '\r') {
		f = f[1:]
	}
	return f
}

// readCSVRow reads the next row with encoding/csv into rr.fields,
// renumbering its lines past the ones the scanner consumed.
func (rr *rowReader) readCSVRow() (int, error) {
	row, err := rr.cr.Read()
	if err == io.EOF {
		return 0, io.EOF
	}
	if err != nil {
		line := rr.scanned + rr.csvLine + 1
		if pe, ok := err.(*csv.ParseError); ok {
			renumbered := *pe
			renumbered.StartLine += rr.scanned
			renumbered.Line += rr.scanned
			err, line = &renumbered, renumbered.StartLine
		}
		return line, fmt.Errorf("dataset: %s %d: %w", rr.what, line, err)
	}
	// The row's fields hold every line break it spans: a quoted field
	// keeps each one as a single '\n'.
	first, _ := rr.cr.FieldPos(0)
	rr.csvLine = first + newlines(row)
	rr.fields = rr.fields[:0]
	for _, f := range row {
		rr.fields = append(rr.fields, []byte(f))
	}
	return rr.scanned + first, nil
}

// newlines counts the line breaks inside a row's fields.
func newlines(row []string) int {
	n := 0
	for _, f := range row {
		n += strings.Count(f, "\n")
	}
	return n
}

// parseRow decodes rr.fields, a row of the header's field count as
// encoding/csv returns it, into a record whose features are written to x
// (dim long). The errors quote a field as it stands there.
func (rr *rowReader) parseRow(line int, x []float64) (Record, error) {
	row := rr.fields
	rec := Record{X: x}
	sField := bytes.TrimSpace(row[0])
	if len(sField) == 0 || len(sField) == 1 && sField[0] == '?' {
		rec.S = SUnknown
	} else {
		s, err := atoi(sField)
		if err != nil {
			return Record{}, fmt.Errorf("dataset: line %d: bad s %q", line, row[0])
		}
		rec.S = s
	}
	u, err := atoi(bytes.TrimSpace(row[1]))
	if err != nil {
		return Record{}, fmt.Errorf("dataset: line %d: bad u %q", line, row[1])
	}
	rec.U = u
	for k := range rec.X {
		v, err := atof.Parse(bytes.TrimSpace(row[2+k]))
		if err != nil {
			return Record{}, fmt.Errorf("dataset: line %d: bad feature %d %q", line, k, row[2+k])
		}
		rec.X[k] = v
	}
	return rec, nil
}

// atoi is strconv.Atoi on a field, without the call for the one-digit
// labels every WriteCSV row carries.
func atoi(f []byte) (int, error) {
	if len(f) == 1 && '0' <= f[0] && f[0] <= '9' {
		return int(f[0] - '0'), nil
	}
	return strconv.Atoi(string(f))
}
