package dataset_test

import (
	"bytes"
	"io"
	"testing"

	"otfair/internal/dataset"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// paperCSV is n records of the paper's Section V-A simulation in the
// WriteCSV layout: the bodies perfbench's CSV workloads send.
func paperCSV(b *testing.B, seed uint64, n int) []byte {
	b.Helper()
	s, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		b.Fatal(err)
	}
	t, err := s.Table(rng.New(seed), n)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := t.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkCSVStream is the decode layer of a /v1/repair CSV request:
// NewCSVStream and Next over a 10 000-record body, then Close.
func BenchmarkCSVStream(b *testing.B) {
	body := paperCSV(b, 1, 10000)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		s, err := dataset.NewCSVStream(bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := s.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		s.Close()
	}
}

// BenchmarkReadResearchColumns is the decode layer of a POST /v1/plans
// request: a 2 000-record research set read into its group columns.
func BenchmarkReadResearchColumns(b *testing.B) {
	body := paperCSV(b, 2, 2000)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := dataset.ReadResearchColumns(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}
