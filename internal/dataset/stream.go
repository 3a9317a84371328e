package dataset

import (
	"fmt"
	"io"
)

// Stream delivers records one at a time — the paper's "torrents of archival
// data" observed online (Section II). Implementations return io.EOF when
// exhausted.
type Stream interface {
	// Next returns the next record or io.EOF.
	Next() (Record, error)
	// Dim reports the feature dimension of the stream's records.
	Dim() int
}

// SliceStream adapts an in-memory table to the Stream interface.
type SliceStream struct {
	table *Table
	pos   int
}

// NewSliceStream wraps a table.
func NewSliceStream(t *Table) *SliceStream { return &SliceStream{table: t} }

// Next implements Stream.
func (s *SliceStream) Next() (Record, error) {
	if s.pos >= s.table.Len() {
		return Record{}, io.EOF
	}
	r := s.table.At(s.pos)
	s.pos++
	return r, nil
}

// Dim implements Stream.
func (s *SliceStream) Dim() int { return s.table.Dim() }

// CSVStream parses records incrementally from a CSV reader in the WriteCSV
// layout, holding only one buffer of input in memory at a time. Close
// hands that buffer back for the next stream.
type CSVStream struct {
	rows *rowReader
}

// NewCSVStream reads and validates the header, returning a stream over the
// remaining rows.
func NewCSVStream(r io.Reader) (*CSVStream, error) {
	rows, header, err := newRowReader(r, "stream line")
	if err != nil {
		return nil, fmt.Errorf("dataset: reading stream header: %w", err)
	}
	if !validHeader(header) {
		rows.release()
		return nil, fmt.Errorf("dataset: stream header must start with s,u, got %v", header)
	}
	return &CSVStream{rows: rows}, nil
}

// Next implements Stream.
func (s *CSVStream) Next() (Record, error) {
	var rec Record
	if _, err := s.rows.next(&rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// Dim implements Stream.
func (s *CSVStream) Dim() int { return s.rows.dim }

// Close returns the stream's read buffer for reuse by a later stream. The
// records already returned stay valid; Next must not be called after.
func (s *CSVStream) Close() error {
	s.rows.release()
	return nil
}

// Collect drains a stream into a table (for tests and small inputs; the
// repair path proper never needs to materialize a stream).
func Collect(s Stream) (*Table, error) {
	t, err := NewTable(s.Dim(), nil)
	if err != nil {
		return nil, err
	}
	for {
		r, err := s.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		if err := t.Append(r); err != nil {
			return nil, err
		}
	}
}
