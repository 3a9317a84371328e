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
	"sync"

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
	defer rows.release()
	if !validHeader(header) {
		return nil, fmt.Errorf("dataset: header must start with s,u followed by features, got %v", header)
	}
	t, err := NewTable(rows.dim, header[2:])
	if err != nil {
		return nil, err
	}
	var rec Record
	for {
		line, err := rows.next(&rec)
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
	defer rows.release()
	if !validHeader(header) {
		return nil, fmt.Errorf("dataset: header must start with s,u followed by features, got %v", header)
	}
	rc := &ResearchColumns{Names: header[2:]}
	for u := range rc.Cols {
		for s := range rc.Cols[u] {
			rc.Cols[u][s] = make([][]float64, rows.dim)
		}
	}
	rec := Record{X: make([]float64, rows.dim)}
	for {
		line, err := rows.read(&rec)
		if err == io.EOF {
			return rc, nil
		}
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
		for k, v := range rec.X {
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

// readBufs holds the row readers' read buffers between bodies, so a
// server decoding one request body after another does not allocate a
// fresh buffer for each.
var readBufs = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, rowBufSize) }}

// slabRecords is the number of records' features one chunk holds.
const slabRecords = 64

// rowReader reads the data rows of the WriteCSV layout. It accepts exactly
// the bytes encoding/csv accepts (TrimLeadingSpace, a field count fixed by
// the header), yields the same records and fails with the same error text,
// but reads a row itself whenever it can:
//
//   - a row that fits in the read buffer is decoded in one pass where it
//     stands in the buffer (scanRow): labels and features read left to
//     right, each number by atof.ParsePrefix, with "\r\n" read as "\n",
//     blank lines skipped and a final line without a newline still read;
//   - any row that pass refuses — a quote, a non-ASCII byte, other space
//     around a field, an unusual label or number, a wrong field count, a
//     row longer than the buffer — is read by encoding/csv, which shares
//     the buffer, and decoded by parseRow, the one path that words a bad
//     row's error.
//
// The choice is made per row and never changes a result. Errors name the
// physical line a row starts on. The read buffer comes from readBufs and
// goes back on release.
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
	// slab is the unused tail of the current feature chunk. Each record's
	// X is carved from it and handed out exactly once: records outlive
	// next (tables, and the serving layer's record windows, keep them), so
	// a chunk is never rewound or reused.
	slab []float64
}

// newRowReader reads the header row with encoding/csv and returns a reader
// over the rows after it. The header sets the field count every row must
// have; the caller checks its shape, and releases the reader when done.
func newRowReader(r io.Reader, what string) (*rowReader, []string, error) {
	br := readBufs.Get().(*bufio.Reader)
	br.Reset(r)
	// csv.NewReader keeps a *bufio.Reader of at least 4096 bytes instead
	// of wrapping it, so the scanner and encoding/csv read one buffer.
	cr := csv.NewReader(br)
	cr.TrimLeadingSpace = true
	rows := &rowReader{br: br, cr: cr, what: what}
	header, err := cr.Read()
	if err != nil {
		rows.release()
		return nil, nil, err
	}
	first, _ := cr.FieldPos(0)
	rows.dim, rows.csvLine = len(header)-2, first+newlines(header)
	return rows, header, nil
}

// release hands the read buffer back to readBufs. The reader is unusable
// after; the records it returned hold no reference to the buffer.
func (rr *rowReader) release() {
	if rr.br == nil {
		return
	}
	rr.br.Reset(nil)
	readBufs.Put(rr.br)
	rr.br, rr.cr = nil, nil
}

// errLongLine reports a line that does not fit in the read buffer.
var errLongLine = errors.New("dataset: line longer than the read buffer")

// next reads the next record into rec, its X carved from the slab, and
// returns the physical line its row starts on, or io.EOF after the last
// row.
func (rr *rowReader) next(rec *Record) (int, error) {
	if len(rr.slab) < rr.dim {
		rr.slab = make([]float64, rr.dim*slabRecords)
	}
	rec.X = rr.slab[:rr.dim:rr.dim]
	line, err := rr.read(rec)
	if err == nil {
		rr.slab = rr.slab[rr.dim:]
	}
	return line, err
}

// read decodes the next row into rec — its labels, and its features into
// rec.X (dim long) — and returns the physical line the row starts on, or
// io.EOF after the last row. The record is passed by pointer down to the
// row decoders, so no call copies it on the way back.
func (rr *rowReader) read(rec *Record) (int, error) {
	for {
		content, size, err := rr.peekLine()
		if err == io.EOF {
			return 0, io.EOF
		}
		if err == errLongLine {
			return rr.readCSVRow(rec)
		}
		line := rr.scanned + rr.csvLine + 1
		if err != nil {
			return line, fmt.Errorf("dataset: %s %d: %w", rr.what, line, err)
		}
		if len(content) == 0 {
			rr.consume(size)
			continue // a blank line, which encoding/csv skips too
		}
		if !scanRow(content, rec) {
			return rr.readCSVRow(rec)
		}
		rr.consume(size)
		return line, nil
	}
}

// consume discards a scanned line of size bytes. The line is buffered, so
// Discard cannot fail.
func (rr *rowReader) consume(size int) {
	_, _ = rr.br.Discard(size)
	rr.scanned++
}

// scanRow decodes a row of the common shape in one left-to-right pass:
// fields split by ',' with only ' ' around them, an s that is one digit,
// '?' or empty, a one-digit u, and dim features that atof.ParsePrefix
// converts. It writes the labels into rec and the features into rec.X,
// reporting false for any other row — a '"', a non-ASCII byte, other space,
// a longer label, a number ParsePrefix leaves to strconv, a wrong field
// count — which read then hands to encoding/csv and parseRow. A row it
// takes decodes to the record that path gives: the text it reads is
// exactly the trimmed field, and ParsePrefix's value is strconv's.
func scanRow(b []byte, rec *Record) bool {
	rec.S = SUnknown
	i := skipSpace(b, 0)
	if i < len(b) {
		if c := b[i]; isDigit(c) {
			rec.S = int(c - '0')
			i++
		} else if c == '?' {
			i++
		}
	}
	i = skipSpace(b, i)
	if i == len(b) || b[i] != ',' {
		return false
	}
	i = skipSpace(b, i+1)
	if i == len(b) || !isDigit(b[i]) {
		return false
	}
	rec.U = int(b[i] - '0')
	i = skipSpace(b, i+1)
	for k := range rec.X {
		if i == len(b) || b[i] != ',' {
			return false
		}
		i = skipSpace(b, i+1)
		v, n, ok := atof.ParsePrefix(b[i:])
		if !ok {
			return false
		}
		rec.X[k] = v
		i = skipSpace(b, i+n)
	}
	return i == len(b)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// skipSpace returns the index of the first byte from b[i] on that is not
// ' '.
func skipSpace(b []byte, i int) int {
	for i < len(b) && b[i] == ' ' {
		i++
	}
	return i
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

// readCSVRow reads the next row with encoding/csv, renumbering its lines
// past the ones the scanner consumed, and parses it into rec.
func (rr *rowReader) readCSVRow(rec *Record) (int, error) {
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
	line := rr.scanned + first
	return line, parseRow(line, row, rec)
}

// newlines counts the line breaks inside a row's fields.
func newlines(row []string) int {
	n := 0
	for _, f := range row {
		n += strings.Count(f, "\n")
	}
	return n
}

// parseRow decodes row, a row of the header's field count as encoding/csv
// returns it, into rec: its labels, and its features into rec.X (dim
// long). It reads every row scanRow refuses, so it alone words a bad row's
// error, quoting a field as it stands there; each field is trimmed and
// converted as strconv reads it, so a row decodes to what scanRow would
// give.
func parseRow(line int, row []string, rec *Record) error {
	sField := strings.TrimSpace(row[0])
	if sField == "" || sField == "?" {
		rec.S = SUnknown
	} else {
		s, err := strconv.Atoi(sField)
		if err != nil {
			return fmt.Errorf("dataset: line %d: bad s %q", line, row[0])
		}
		rec.S = s
	}
	u, err := strconv.Atoi(strings.TrimSpace(row[1]))
	if err != nil {
		return fmt.Errorf("dataset: line %d: bad u %q", line, row[1])
	}
	rec.U = u
	for k := range rec.X {
		v, err := strconv.ParseFloat(strings.TrimSpace(row[2+k]), 64)
		if err != nil {
			return fmt.Errorf("dataset: line %d: bad feature %d %q", line, k, row[2+k])
		}
		rec.X[k] = v
	}
	return nil
}
