package dataset

import (
	"bytes"
	"io"
	"math"
	"testing"
)

// FuzzCSVStream drives the streaming CSV decoder with arbitrary bytes: it
// must never panic, and every row it accepts into a table must survive a
// WriteCSV → ReadCSV round trip unchanged, features compared bitwise.
func FuzzCSVStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := NewCSVStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		table := MustTable(in.Dim(), nil)
		for {
			rec, err := in.Next()
			if err == io.EOF {
				break
			}
			if err != nil || table.Append(rec) != nil {
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
		if back.Len() != table.Len() || back.Dim() != table.Dim() {
			t.Fatalf("round trip: %d×%d, want %d×%d", back.Len(), back.Dim(), table.Len(), table.Dim())
		}
		for i, want := range table.Records() {
			got := back.At(i)
			if got.S != want.S || got.U != want.U {
				t.Fatalf("record %d: labels (%d,%d), want (%d,%d)", i, got.S, got.U, want.S, want.U)
			}
			for k, w := range want.X {
				if math.Float64bits(got.X[k]) != math.Float64bits(w) {
					t.Fatalf("record %d feature %d: %v, want %v", i, k, got.X[k], w)
				}
			}
		}
	})
}
