package repairsvc

// The calibrated (s-unlabelled) half of the engine's differential pins:
// per-method byte identity with blind.Repairer, the shared labelled
// sampler, the parallel modes, mixed-label accounting and bind-time
// calibration checks.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"otfair/internal/blind"
	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/fairmetrics"
	"otfair/internal/rng"
	"otfair/internal/shardrun"
	"otfair/internal/simulate"
)

// newBlindEngine binds a plan and derives the calibrated engine from it —
// the serving layer's bind path.
func newBlindEngine(plan *core.Plan, cal *blind.Calibration, opts Options) (*Engine, error) {
	labelled, err := NewEngine(plan, opts)
	if err != nil {
		return nil, err
	}
	return labelled.WithCalibration(cal)
}

// blindTestData draws research/archive tables from the paper's simulation
// scenario, designs the labelled plan, fits a calibration, and strips the
// archive's s labels — the blind serving setup.
func blindTestData(t testing.TB, seed uint64, nR, nA, nq int) (*core.Plan, *blind.Calibration, *dataset.Table, *dataset.Table) {
	t.Helper()
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	research, archive, err := sampler.ResearchArchive(rng.New(seed), nR, nA)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Design(research, core.Options{NQ: nq})
	if err != nil {
		t.Fatal(err)
	}
	cal, err := blind.NewCalibration(plan, research)
	if err != nil {
		t.Fatal(err)
	}
	return plan, cal, research, archive.DropS()
}

var blindMethods = []blind.Method{blind.MethodHard, blind.MethodDraw, blind.MethodMix, blind.MethodPooled}

// TestBlindEngineSerialByteIdentical is the blind differential pin: with
// workers=1 the engine reproduces blind.Repairer.RepairTable byte for byte
// at the same seed, for every blind method, in both table and streaming
// mode. This is the contract the blind serve path rests on.
func TestBlindEngineSerialByteIdentical(t *testing.T) {
	plan, cal, research, unlabelled := blindTestData(t, 1, 300, 1200, 40)
	engine, err := newBlindEngine(plan, cal, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range blindMethods {
		ref, err := blind.New(plan, research, rng.New(11), blind.Options{Method: method})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.RepairTable(unlabelled)
		if err != nil {
			t.Fatal(err)
		}
		got, st, diag, err := engine.RepairTable(rng.New(11), method, unlabelled)
		if err != nil {
			t.Fatal(err)
		}
		tablesEqual(t, got, want)
		if st != ref.Stats() {
			t.Errorf("method %v: stats differ: %+v vs %+v", method, st, ref.Stats())
		}
		if diag != ref.Diagnostics() {
			t.Errorf("method %v: diagnostics differ: %+v vs %+v", method, diag, ref.Diagnostics())
		}

		// Streaming mode, same contract.
		streamed, err := dataset.NewTable(unlabelled.Dim(), unlabelled.Names())
		if err != nil {
			t.Fatal(err)
		}
		n, _, _, err := engine.RepairStreamContext(context.Background(), rng.New(11), method, dataset.NewSliceStream(unlabelled), appendSink(streamed))
		if err != nil {
			t.Fatal(err)
		}
		if n != unlabelled.Len() {
			t.Fatalf("streamed %d of %d", n, unlabelled.Len())
		}
		tablesEqual(t, streamed, want)
	}
}

// recordStream yields recs in order, then fails with err (io.EOF when
// err is nil). Unlike a SliceStream it can carry records a Table would
// reject.
type recordStream struct {
	recs []dataset.Record
	dim  int
	pos  int
	err  error
}

func (s *recordStream) Next() (dataset.Record, error) {
	if s.pos == len(s.recs) {
		if s.err != nil {
			return dataset.Record{}, s.err
		}
		return dataset.Record{}, io.EOF
	}
	s.pos++
	return s.recs[s.pos-1], nil
}

func (s *recordStream) Dim() int { return s.dim }

// TestEngineSerialPrefixAcrossChunk pins the serial span loop's failure
// contract past the first span: a stream that fails at record
// spanSize+37 — an invalid record the repairer rejects, or a Next error —
// delivers exactly the records before it, byte-identical to
// blind.Repairer.RepairStream with the same seed and with the same
// blind.Stats, and a repair error names the record's absolute index.
func TestEngineSerialPrefixAcrossChunk(t *testing.T) {
	const bad = spanSize + 37
	plan, cal, research, unlabelled := blindTestData(t, 6, 300, bad+500, 30)
	engine, err := newBlindEngine(plan, cal, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	invalid := append([]dataset.Record(nil), unlabelled.Records()...)
	invalid[bad].U = 7
	errRead := errors.New("read failed")
	inputs := []struct {
		name  string
		input func() *recordStream
	}{
		{"invalid record", func() *recordStream { return &recordStream{recs: invalid, dim: unlabelled.Dim()} }},
		{"read error", func() *recordStream {
			return &recordStream{recs: unlabelled.Records()[:bad], dim: unlabelled.Dim(), err: errRead}
		}},
	}
	for _, in := range inputs {
		name, input := in.name, in.input
		for _, method := range blindMethods {
			ref, err := blind.New(plan, research, rng.New(11), blind.Options{Method: method})
			if err != nil {
				t.Fatal(err)
			}
			want, err := dataset.NewTable(unlabelled.Dim(), unlabelled.Names())
			if err != nil {
				t.Fatal(err)
			}
			wantN, wantErr := ref.RepairStream(input(), want.Append)
			got, err := dataset.NewTable(unlabelled.Dim(), unlabelled.Names())
			if err != nil {
				t.Fatal(err)
			}
			n, st, _, err := engine.RepairStreamContext(context.Background(), rng.New(11), method, input(), appendSink(got))
			if wantErr == nil || err == nil {
				t.Fatalf("%s, %v: errors %v (reference) and %v (engine), want both non-nil", name, method, wantErr, err)
			}
			if n != bad || wantN != bad || got.Len() != bad {
				t.Fatalf("%s, %v: engine delivered %d (sink saw %d), reference %d, want %d", name, method, n, got.Len(), wantN, bad)
			}
			tablesEqual(t, got, want)
			if st != ref.Stats() {
				t.Errorf("%s, %v: stats differ: %+v vs %+v", name, method, st, ref.Stats())
			}
			switch name {
			case "invalid record":
				if !strings.Contains(err.Error(), fmt.Sprintf("record %d:", bad)) {
					t.Errorf("%s, %v: error %q does not name record %d", name, method, err, bad)
				}
			case "read error":
				if !errors.Is(err, errRead) {
					t.Errorf("%s, %v: error %v, want the read error", name, method, err)
				}
			}
		}
	}
}

// TestBlindEngineSharedSamplerByteIdentical pins WithCalibration on a
// labelled engine that is already bound — the serving layer's path, which
// reuses that engine's sampler — to a freshly bound engine.
func TestBlindEngineSharedSamplerByteIdentical(t *testing.T) {
	plan, cal, _, unlabelled := blindTestData(t, 2, 250, 600, 30)
	labelled, err := NewEngine(plan, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	own, err := newBlindEngine(plan, cal, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := labelled.WithCalibration(cal)
	if err != nil {
		t.Fatal(err)
	}
	if shared.smp.Labelled != labelled.smp.Labelled {
		t.Error("calibrated engine rebuilt the labelled sampler")
	}
	for _, method := range blindMethods {
		a, _, _, err := own.RepairTable(rng.New(3), method, unlabelled)
		if err != nil {
			t.Fatal(err)
		}
		b, _, _, err := shared.RepairTable(rng.New(3), method, unlabelled)
		if err != nil {
			t.Fatal(err)
		}
		tablesEqual(t, a, b)
	}
}

// TestBlindEngineParallelDeterministicAndEffective pins the workers=N table
// fan-out: repeatable for a fixed (seed, workers), clamped correctly on
// tiny tables, and actually repairing — the posterior-mixed repair must
// quench most of the measured unfairness. A stream ignores the fan-out:
// it repairs serially, byte-identical to a one-worker engine's.
func TestBlindEngineParallelDeterministicAndEffective(t *testing.T) {
	plan, cal, _, unlabelled := blindTestData(t, 3, 400, 3000, 50)
	engine, err := newBlindEngine(plan, cal, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := newBlindEngine(plan, cal, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := dataset.NewTable(unlabelled.Dim(), unlabelled.Names())
	if err != nil {
		t.Fatal(err)
	}
	if err := tiny.Append(unlabelled.At(0)); err != nil {
		t.Fatal(err)
	}
	for _, method := range blindMethods {
		runTable := func(tbl *dataset.Table) *dataset.Table {
			out, _, _, err := engine.RepairTable(rng.New(5), method, tbl)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		tablesEqual(t, runTable(unlabelled), runTable(unlabelled))
		tablesEqual(t, runTable(tiny), runTable(tiny))
		runStream := func(e *Engine) *dataset.Table {
			out, err := dataset.NewTable(unlabelled.Dim(), unlabelled.Names())
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := e.RepairStreamContext(context.Background(), rng.New(5), method, dataset.NewSliceStream(unlabelled), appendSink(out)); err != nil {
				t.Fatal(err)
			}
			return out
		}
		tablesEqual(t, runStream(engine), runStream(serial))
	}

	// Effectiveness, judged against the true labels: repair blind, then
	// re-attach the ground-truth s and check E dropped substantially.
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	_, labelledArchive, err := sampler.ResearchArchive(rng.New(3), 400, 3000)
	if err != nil {
		t.Fatal(err)
	}
	out, st, _, err := engine.RepairTable(rng.New(5), blind.MethodDraw, unlabelled)
	if err != nil {
		t.Fatal(err)
	}
	if st.Imputed != int64(unlabelled.Len()) {
		t.Errorf("imputed %d of %d unlabelled records", st.Imputed, unlabelled.Len())
	}
	relabelled := out.Clone()
	for i := range relabelled.Records() {
		relabelled.Records()[i].S = labelledArchive.At(i).S
	}
	cfg := fairmetrics.Config{Estimator: fairmetrics.EstimatorPlugin}
	before, err := fairmetrics.E(labelledArchive, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := fairmetrics.E(relabelled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(after < before/2) {
		t.Errorf("blind parallel repair too weak: E %.4f -> %.4f", before, after)
	}
}

// TestBlindEngineMixedLabels checks that records arriving with an observed s
// keep the labelled fast path (LabelsUsed) while unlabelled ones are
// imputed, and that the totals ledger adds up.
func TestBlindEngineMixedLabels(t *testing.T) {
	plan, cal, _, unlabelled := blindTestData(t, 4, 250, 400, 30)
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	_, labelledArchive, err := sampler.ResearchArchive(rng.New(4), 250, 400)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := dataset.NewTable(unlabelled.Dim(), unlabelled.Names())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < unlabelled.Len(); i++ {
		rec := unlabelled.At(i)
		if i%2 == 0 {
			rec = labelledArchive.At(i)
		}
		if err := mixed.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	engine, err := newBlindEngine(plan, cal, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, st, _, err := engine.RepairTable(rng.New(7), blind.MethodHard, mixed)
	if err != nil {
		t.Fatal(err)
	}
	if st.LabelsUsed != int64((mixed.Len()+1)/2) || st.Imputed != int64(mixed.Len()/2) {
		t.Errorf("labels used %d / imputed %d, want %d/%d", st.LabelsUsed, st.Imputed, (mixed.Len()+1)/2, mixed.Len()/2)
	}
	totals := engine.Totals()
	if totals.Records != int64(mixed.Len()) || totals.LabelsUsed != st.LabelsUsed || totals.Imputed != st.Imputed {
		t.Errorf("totals %+v do not match request stats %+v", totals, st)
	}
	if totals.MeanConfidence() <= 0.5 || totals.MeanConfidence() > 1 {
		t.Errorf("mean confidence %v outside (0.5, 1]", totals.MeanConfidence())
	}
}

// TestBlindEngineCalibrationMismatch ensures a calibration fitted for another
// plan is rejected at bind time.
func TestBlindEngineCalibrationMismatch(t *testing.T) {
	plan, _, _, _ := blindTestData(t, 5, 250, 10, 30)
	_, otherCal, _, _ := blindTestData(t, 6, 250, 10, 30)
	if _, err := newBlindEngine(plan, otherCal, Options{}); err == nil {
		t.Fatal("calibration for a different plan bound without error")
	}
}

// TestBlindEngineConcurrentRequests hammers one engine from several goroutines
// with different methods; under -race this certifies the shared-sampler
// blind path.
func TestBlindEngineConcurrentRequests(t *testing.T) {
	plan, cal, _, unlabelled := blindTestData(t, 7, 250, 800, 30)
	engine, err := newBlindEngine(plan, cal, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	outs := make([]*dataset.Table, 6)
	for g := range outs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			method := blindMethods[g%len(blindMethods)]
			out, _, _, err := engine.RepairTable(rng.New(99), method, unlabelled)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			outs[g] = out
		}(g)
	}
	wg.Wait()
	// Same (seed, method, workers) pairs must agree even under contention.
	for g := len(blindMethods); g < len(outs); g++ {
		tablesEqual(t, outs[g-len(blindMethods)], outs[g])
	}
	if got := engine.Totals().Records; got != int64(6*unlabelled.Len()) {
		t.Errorf("totals records = %d, want %d", got, 6*unlabelled.Len())
	}
}

// TestBlindEngineRejectsNegativeOptions: the calibrated engine shares the
// labelled one's shardrun.Options validation, so a negative fan-out fails
// with the same typed error on the blind bind path.
func TestBlindEngineRejectsNegativeOptions(t *testing.T) {
	plan, cal, _, _ := blindTestData(t, 40, 250, 10, 20)
	for _, opts := range []Options{{Workers: -1}, {Workers: -3}} {
		_, err := newBlindEngine(plan, cal, opts)
		var oe *shardrun.OptionError
		if !errors.As(err, &oe) {
			t.Errorf("newBlindEngine(%+v) = %v, want *shardrun.OptionError", opts, err)
		}
	}
	if _, err := newBlindEngine(plan, cal, Options{}); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
}

// TestBlindEngineAbsurdFanOutStaysCheap mirrors repairsvc's: per-shard state is
// sized by the data (shardrun.Slots), so a billion-worker request cannot
// balloon memory; repair still completes and stays deterministic.
func TestBlindEngineAbsurdFanOutStaysCheap(t *testing.T) {
	plan, cal, _, unlabelled := blindTestData(t, 41, 250, 64, 20)
	engine, err := newBlindEngine(plan, cal, Options{Workers: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	run := func() *dataset.Table {
		out, _, _, err := engine.RepairTable(rng.New(2), blind.MethodDraw, unlabelled)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := dataset.NewTable(unlabelled.Dim(), unlabelled.Names())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := engine.RepairStreamContext(context.Background(), rng.New(2), blind.MethodDraw, dataset.NewSliceStream(unlabelled), appendSink(streamed)); err != nil {
			t.Fatal(err)
		}
		return out
	}
	tablesEqual(t, run(), run())
}
