package blind

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/rng"
)

// newPair builds two same-seed repairers: batched, whose span paths the
// tests drive, and scalar, whose RepairRecord the tests replay record by
// record — one posterior per record, each a length-1 batch.
func newPair(t *testing.T, seed uint64, method Method) (batched, scalar *Repairer, research, archive *dataset.Table) {
	t.Helper()
	plan, research, archive := designOnScenario(t, seed, 400, 3000)
	var err error
	batched, err = New(plan, research, rng.New(seed), Options{Method: method})
	if err != nil {
		t.Fatal(err)
	}
	if method != MethodPooled && batched.bp == nil {
		t.Fatal("default repairer did not arm the batched posterior")
	}
	scalar, err = New(plan, research, rng.New(seed), Options{Method: method})
	if err != nil {
		t.Fatal(err)
	}
	return batched, scalar, research, archive
}

// mixLabels relabels a third of the archive with its true s so the spans
// mix labelled and unlabelled records (the gather/scatter path).
func mixLabels(t *testing.T, archive *dataset.Table) *dataset.Table {
	t.Helper()
	out := archive.Clone()
	recs := out.Records()
	for i := range recs {
		if i%3 != 0 {
			recs[i].S = dataset.SUnknown
		}
	}
	return out
}

// TestRepairTableBatchedByteIdentical pins the span-batched RepairTable
// against the per-record sequence for every method, over a table larger
// than one span and with mixed labelled/unlabelled records.
func TestRepairTableBatchedByteIdentical(t *testing.T) {
	for _, method := range []Method{MethodHard, MethodDraw, MethodMix, MethodPooled} {
		t.Run(method.String(), func(t *testing.T) {
			batched, scalar, _, archive := newPair(t, 41, method)
			mixed := mixLabels(t, archive)
			outB, err := batched.RepairTable(mixed)
			if err != nil {
				t.Fatal(err)
			}
			outS, err := scalarRepairTable(scalar, mixed)
			if err != nil {
				t.Fatal(err)
			}
			if outB.Len() != outS.Len() {
				t.Fatalf("lengths %d vs %d", outB.Len(), outS.Len())
			}
			for i := 0; i < outB.Len(); i++ {
				a, b := outB.At(i), outS.At(i)
				if a.S != b.S || a.U != b.U || a.X[0] != b.X[0] || a.X[1] != b.X[1] {
					t.Fatalf("record %d differs: %+v vs %+v", i, a, b)
				}
			}
			if batched.Stats() != scalar.Stats() {
				t.Fatalf("stats diverged: %+v vs %+v", batched.Stats(), scalar.Stats())
			}
		})
	}
}

// scalarRepairStream replays the pre-batching per-record stream loop — the
// reference sequence RepairStream must reproduce byte for byte.
func scalarRepairStream(rp *Repairer, in dataset.Stream, sink func(dataset.Record) error) (int, error) {
	n := 0
	for {
		rec, err := in.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		repaired, err := rp.RepairRecord(rec)
		if err != nil {
			return n, fmt.Errorf("blind: stream record %d: %w", n, err)
		}
		if err := sink(repaired); err != nil {
			return n, err
		}
		n++
	}
}

// scalarRepairTable replays the pre-batching per-record table loop — the
// reference sequence RepairTable's span path must reproduce byte for byte.
func scalarRepairTable(rp *Repairer, t *dataset.Table) (*dataset.Table, error) {
	out, err := dataset.NewTable(t.Dim(), t.Names())
	if err != nil {
		return nil, err
	}
	for i := 0; i < t.Len(); i++ {
		rec, err := rp.RepairRecord(t.At(i))
		if err != nil {
			return nil, err
		}
		if err := out.Append(rec); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestRepairStreamBatchedByteIdentical pins the chunked stream path —
// batched posteriors, per-record sinking — against the scalar stream.
func TestRepairStreamBatchedByteIdentical(t *testing.T) {
	for _, method := range []Method{MethodHard, MethodDraw, MethodPooled} {
		t.Run(method.String(), func(t *testing.T) {
			batched, scalar, _, archive := newPair(t, 42, method)
			mixed := mixLabels(t, archive)

			var got []dataset.Record
			n, err := batched.RepairStream(dataset.NewSliceStream(mixed), func(r dataset.Record) error {
				got = append(got, r)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var want []dataset.Record
			m, err := scalarRepairStream(scalar, dataset.NewSliceStream(mixed), func(r dataset.Record) error {
				want = append(want, r)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if n != m || n != mixed.Len() {
				t.Fatalf("counts %d vs %d (want %d)", n, m, mixed.Len())
			}
			for i := range got {
				if got[i].X[0] != want[i].X[0] || got[i].X[1] != want[i].X[1] || got[i].S != want[i].S {
					t.Fatalf("record %d differs: %+v vs %+v", i, got[i], want[i])
				}
			}
			if batched.Stats() != scalar.Stats() {
				t.Fatalf("stats diverged")
			}
		})
	}
}

// lockstepStream fails the test if a record is pulled before the previous
// one was sunk — the flow-through contract of the torrent deployment mode.
type lockstepStream struct {
	t    *testing.T
	recs []dataset.Record
	dim  int
	read int
	sunk *int
}

func (s *lockstepStream) Dim() int { return s.dim }

func (s *lockstepStream) Next() (dataset.Record, error) {
	if s.read > *s.sunk {
		s.t.Fatalf("stream pulled record %d before record %d was sunk", s.read, *s.sunk)
	}
	if s.read >= len(s.recs) {
		return dataset.Record{}, io.EOF
	}
	rec := s.recs[s.read]
	s.read++
	return rec, nil
}

// TestRepairStreamFlowThrough pins the liveness contract: RepairStream
// must repair and sink each record before pulling the next, never
// buffering a span — a live torrent's downstream cannot wait on a batch
// filling up.
func TestRepairStreamFlowThrough(t *testing.T) {
	batched, _, _, archive := newPair(t, 45, MethodDraw)
	mixed := mixLabels(t, archive)
	sunk := 0
	in := &lockstepStream{t: t, recs: mixed.Records(), dim: mixed.Dim(), sunk: &sunk}
	n, err := batched.RepairStream(in, func(dataset.Record) error {
		sunk++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != mixed.Len() || sunk != mixed.Len() {
		t.Fatalf("repaired %d, sunk %d, want %d", n, sunk, mixed.Len())
	}
}

// TestBatchedTableInvalidRecordKeepsScalarSemantics: a span containing an
// invalid record must fail with the same error position (and error text
// shape) as the per-record loop, via the scalar fallback.
func TestBatchedTableInvalidRecordKeepsScalarSemantics(t *testing.T) {
	batched, scalar, _, archive := newPair(t, 43, MethodDraw)
	bad := mixLabels(t, archive)
	recs := bad.Records()
	badIdx := 1500 // second span
	recs[badIdx].U = 7

	_, errB := batched.RepairTable(bad)
	_, errS := scalarRepairTable(scalar, bad)
	if errB == nil || errS == nil {
		t.Fatalf("invalid record accepted: batched=%v scalar=%v", errB, errS)
	}
	if !strings.Contains(errB.Error(), "1500") {
		t.Fatalf("batched error lost the record position: %v", errB)
	}
	if !strings.Contains(errB.Error(), "invalid u label") {
		t.Fatalf("unexpected batched error: %v", errB)
	}
	// Both paths consumed identical RNG up to the failure.
	if batched.Stats() != scalar.Stats() {
		t.Fatalf("stats diverged after failure: %+v vs %+v", batched.Stats(), scalar.Stats())
	}
}

// TestBatchedStreamInvalidRecordSinksPrefix: the stream path must sink
// every record before the invalid one (scalar fallback inside the span),
// mirroring the per-record stream's partial progress.
func TestBatchedStreamInvalidRecordSinksPrefix(t *testing.T) {
	batched, scalar, _, archive := newPair(t, 44, MethodDraw)
	bad := mixLabels(t, archive)
	recs := bad.Records()
	badIdx := 1100
	recs[badIdx] = dataset.Record{X: []float64{0}, S: dataset.SUnknown, U: 0} // wrong dim

	var got []dataset.Record
	n, errB := batched.RepairStream(dataset.NewSliceStream(bad), func(r dataset.Record) error {
		got = append(got, r)
		return nil
	})
	var want []dataset.Record
	m, errS := scalarRepairStream(scalar, dataset.NewSliceStream(bad), func(r dataset.Record) error {
		want = append(want, r)
		return nil
	})
	if errB == nil || errS == nil {
		t.Fatal("invalid record accepted")
	}
	if n != badIdx || m != badIdx {
		t.Fatalf("sunk counts %d / %d, want %d", n, m, badIdx)
	}
	if !strings.Contains(errB.Error(), "stream record 1100") {
		t.Fatalf("batched stream error lost position: %v", errB)
	}
	for i := range got {
		if got[i].X[0] != want[i].X[0] || got[i].X[1] != want[i].X[1] {
			t.Fatalf("record %d differs before the failure", i)
		}
	}
}

// TestRepairSpanOptionsMatchRecordLoop pins RepairSpan with both repair
// options on (jitter and kernel dither, whose draws interleave with the
// alias draws in the RNG stream) against a RepairRecord loop at the same
// seed, for every method. The input carries a record with an invalid s
// label and one with an invalid u, each failing mid-block after valid
// records of the same block were drawn; a labelled-serving repairer (no
// posterior bound) also meets an unlabelled record mid-block, which fails
// with ErrNoPosterior. After each failure both repairers resume on the
// next record, so any draw the failed record left behind would show up
// downstream.
func TestRepairSpanOptionsMatchRecordLoop(t *testing.T) {
	opts := core.RepairOptions{Jitter: true, KernelDither: true}
	cases := []struct {
		name        string
		method      Method
		noPosterior bool
	}{
		{MethodHard.String(), MethodHard, false},
		{MethodDraw.String(), MethodDraw, false},
		{MethodMix.String(), MethodMix, false},
		{MethodPooled.String(), MethodPooled, false},
		{"no-posterior", MethodDraw, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, research, archive := designOnScenario(t, 47, 400, 3000)
			build := func() *Repairer {
				t.Helper()
				o := Options{Method: tc.method, Repair: opts}
				if !tc.noPosterior {
					rp, err := New(plan, research, rng.New(47), o)
					if err != nil {
						t.Fatal(err)
					}
					return rp
				}
				smp, err := core.NewPlanSampler(plan)
				if err != nil {
					t.Fatal(err)
				}
				rp, err := NewCalibrated(nil, Samplers{Labelled: smp}, rng.New(47), o)
				if err != nil {
					t.Fatal(err)
				}
				return rp
			}
			span, loop := build(), build()
			recs := mixLabels(t, archive).Records()
			if tc.noPosterior {
				recs = archive.Clone().Records()
				recs[1700].S = dataset.SUnknown
			}
			recs[1300].S = 5
			recs[2200].U = 7

			got := make([]dataset.Record, len(recs))
			want := make([]dataset.Record, len(recs))
			failures := 0
			for lo := 0; lo < len(recs); {
				n, errSpan := span.RepairSpan(context.Background(), lo, recs[lo:], got[lo:])
				m := 0
				var errLoop error
				for ; lo+m < len(recs); m++ {
					var o dataset.Record
					if o, errLoop = loop.RepairRecord(recs[lo+m]); errLoop != nil {
						break
					}
					want[lo+m] = o
				}
				if n != m || (errSpan == nil) != (errLoop == nil) {
					t.Fatalf("span from %d: completed %d (err %v), loop %d (err %v)", lo, n, errSpan, m, errLoop)
				}
				if errSpan != nil && errSpan.Error() != fmt.Sprintf("blind: record %d: %v", lo+m, errLoop) {
					t.Fatalf("span error %q does not name the loop's failure %q at record %d", errSpan, errLoop, lo+m)
				}
				for i := lo; i < lo+n; i++ {
					if !sameRecord(got[i], want[i]) {
						t.Fatalf("record %d differs: %+v vs %+v", i, got[i], want[i])
					}
				}
				if span.Stats() != loop.Stats() || span.Diagnostics() != loop.Diagnostics() {
					t.Fatalf("counters diverged at %d: %+v %+v vs %+v %+v", lo+n, span.Stats(), span.Diagnostics(), loop.Stats(), loop.Diagnostics())
				}
				if errSpan != nil {
					failures++
				}
				lo += n + 1
			}
			wantFailures := 2
			switch {
			case tc.method == MethodPooled:
				// The pooled transport never reads s.
				wantFailures = 1
			case tc.noPosterior:
				wantFailures = 3
			}
			if failures != wantFailures {
				t.Fatalf("%d failures, want %d", failures, wantFailures)
			}
		})
	}
}

// sameRecord compares two records bit for bit.
func sameRecord(a, b dataset.Record) bool {
	if a.S != b.S || a.U != b.U || len(a.X) != len(b.X) {
		return false
	}
	for k := range a.X {
		if math.Float64bits(a.X[k]) != math.Float64bits(b.X[k]) {
			return false
		}
	}
	return true
}
