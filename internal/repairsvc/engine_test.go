package repairsvc

import (
	"context"
	"errors"
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

// appendSink returns a RepairStreamContext span sink that appends each
// span's repairs to t.
func appendSink(t *dataset.Table) func(in, out []dataset.Record) error {
	return func(_, out []dataset.Record) error { return t.AppendAll(out) }
}

// testData returns a designed plan plus research/archive tables from the
// paper's simulation scenario.
func testData(t testing.TB, seed uint64, nResearch, nArchive, nq int) (*core.Plan, *dataset.Table, *dataset.Table) {
	t.Helper()
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	research, archive, err := sampler.ResearchArchive(rng.New(seed), nResearch, nArchive)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Design(research, core.Options{NQ: nq})
	if err != nil {
		t.Fatal(err)
	}
	return plan, research, archive
}

func tablesEqual(t *testing.T, a, b *dataset.Table) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("length mismatch: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		ra, rb := a.At(i), b.At(i)
		if ra.S != rb.S || ra.U != rb.U {
			t.Fatalf("record %d labels differ", i)
		}
		for k := range ra.X {
			if ra.X[k] != rb.X[k] {
				t.Fatalf("record %d feature %d: %v != %v", i, k, ra.X[k], rb.X[k])
			}
		}
	}
}

// TestEngineSerialByteIdentical pins the engine's workers=1 mode to the
// plain in-process Repairer: same seed, bit-identical output. This is the
// contract the serve-path equivalence rests on.
func TestEngineSerialByteIdentical(t *testing.T) {
	plan, _, archive := testData(t, 1, 300, 1500, 40)
	engine, err := NewEngine(plan, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, _, diag, err := engine.RepairTable(rng.New(11), blind.MethodHard, archive)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := core.NewRepairer(plan, rng.New(11), core.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, got, want)
	if diag != rp.Diagnostics() {
		t.Errorf("diagnostics differ: %+v vs %+v", diag, rp.Diagnostics())
	}

	// Streaming mode, same contract.
	streamed, err := dataset.NewTable(archive.Dim(), archive.Names())
	if err != nil {
		t.Fatal(err)
	}
	n, _, _, err := engine.RepairStreamContext(context.Background(), rng.New(11), blind.MethodHard, dataset.NewSliceStream(archive), appendSink(streamed))
	if err != nil {
		t.Fatal(err)
	}
	if n != archive.Len() {
		t.Fatalf("streamed %d of %d", n, archive.Len())
	}
	tablesEqual(t, streamed, want)
}

// shardedCoreRepair is the reference for a workers-way table repair:
// shardrun.TableObs splits the table, and each shard's sub-table is
// repaired by its own core.Repairer on the shard's split stream, every
// shard over one shared sampler.
func shardedCoreRepair(t *testing.T, plan *core.Plan, r *rng.RNG, tbl *dataset.Table, workers int) *dataset.Table {
	t.Helper()
	sampler, err := core.NewPlanSampler(plan)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*dataset.Table, shardrun.Slots(workers, tbl.Len()))
	err = shardrun.TableObs(context.Background(), r, workers, tbl.Len(), nil, func(w int, rr *rng.RNG, lo, hi int) error {
		rp, err := core.NewRepairerShared(sampler, rr, core.RepairOptions{})
		if err != nil {
			return err
		}
		sub, err := dataset.NewTable(tbl.Dim(), tbl.Names())
		if err != nil {
			return err
		}
		if err := sub.AppendAll(tbl.Records()[lo:hi]); err != nil {
			return err
		}
		parts[w], err = rp.RepairTable(sub)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := dataset.NewTable(tbl.Dim(), tbl.Names())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		if p == nil {
			continue // slot of a shard the clamp dropped
		}
		if err := out.AppendAll(p.Records()); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestEngineParallelMatchesCoreParallel pins workers=w to w contiguous
// shards, each repaired by a core.Repairer on its own split stream.
func TestEngineParallelMatchesCoreParallel(t *testing.T) {
	plan, _, archive := testData(t, 2, 300, 2000, 40)
	// The 1-record table exercises the worker clamp: both paths must fall
	// back to the same single Split(0) shard.
	tiny, err := dataset.NewTable(archive.Dim(), archive.Names())
	if err != nil {
		t.Fatal(err)
	}
	if err := tiny.Append(archive.At(0)); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []*dataset.Table{archive, tiny} {
		for _, workers := range []int{2, 4, 7} {
			engine, err := NewEngine(plan, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got, _, _, err := engine.RepairTable(rng.New(3), blind.MethodHard, tbl)
			if err != nil {
				t.Fatal(err)
			}
			tablesEqual(t, got, shardedCoreRepair(t, plan, rng.New(3), tbl, workers))
		}
	}
}

// TestEngineParallelTableMatchesQuality checks the sharded table path
// end to end: every value repaired, labels kept record for record, and
// the repair actually removing the dependence.
func TestEngineParallelTableMatchesQuality(t *testing.T) {
	plan, _, archive := testData(t, 41, 500, 6000, 50)
	engine, err := NewEngine(plan, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	out, _, diag, err := engine.RepairTable(rng.New(5), blind.MethodHard, archive)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != archive.Len() {
		t.Fatalf("len %d != %d", out.Len(), archive.Len())
	}
	if diag.Repaired != int64(archive.Len()*archive.Dim()) {
		t.Errorf("diag repaired = %d", diag.Repaired)
	}
	for i := 0; i < out.Len(); i++ {
		if out.At(i).S != archive.At(i).S || out.At(i).U != archive.At(i).U {
			t.Fatalf("record %d: labels scrambled", i)
		}
	}

	cfg := fairmetrics.Config{Estimator: fairmetrics.EstimatorPlugin}
	before, err := fairmetrics.E(archive, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := fairmetrics.E(out, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(after < before/3) {
		t.Errorf("parallel table repair too weak: E %.4f -> %.4f", before, after)
	}
}

// TestEngineParallelTableDeterministic: the same seed and worker count
// reproduce the same bytes, on one engine and on a second one built
// from the same plan.
func TestEngineParallelTableDeterministic(t *testing.T) {
	plan, _, archive := testData(t, 42, 300, 2000, 40)
	repair := func(engine *Engine) *dataset.Table {
		t.Helper()
		out, _, _, err := engine.RepairTable(rng.New(7), blind.MethodHard, archive)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, err := NewEngine(plan, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(plan, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	first := repair(a)
	tablesEqual(t, repair(a), first)
	tablesEqual(t, repair(b), first)
}

// TestEngineRepairTableValidation: bad arguments fail before any shard
// runs, and an unlabelled record inside a shard of a labelled engine
// fails the whole table with the shard's error.
func TestEngineRepairTableValidation(t *testing.T) {
	plan, _, archive := testData(t, 44, 200, 50, 20)
	if _, err := NewEngine(nil, Options{Workers: 2}); err == nil {
		t.Error("nil plan accepted")
	}
	engine, err := NewEngine(plan, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := engine.RepairTable(nil, blind.MethodHard, archive); err == nil {
		t.Error("nil rng accepted")
	}
	if _, _, _, err := engine.RepairTable(rng.New(1), blind.MethodHard, nil); err == nil {
		t.Error("nil table accepted")
	}
	if _, _, _, err := engine.RepairTable(rng.New(1), blind.MethodHard, dataset.MustTable(5, nil)); err == nil {
		t.Error("dimension mismatch accepted")
	}
	out, _, _, err := engine.RepairTable(rng.New(1), blind.MethodHard, archive.DropS())
	if !errors.Is(err, blind.ErrNoPosterior) {
		t.Errorf("unlabelled records: got %v, want blind.ErrNoPosterior", err)
	}
	if out != nil {
		t.Error("a failed table repair returned a table")
	}
}

// TestEngineStreamDeterministicAndEffective checks the stream path on an
// engine with a table fan-out: the stream still repairs serially on the
// caller's RNG — byte-identical to core.Repairer's RepairStream at the
// same seed, whatever Workers is — and the output actually repairs.
func TestEngineStreamDeterministicAndEffective(t *testing.T) {
	plan, _, archive := testData(t, 3, 400, 3000, 50)
	engine, err := NewEngine(plan, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := dataset.NewTable(archive.Dim(), archive.Names())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := engine.RepairStreamContext(context.Background(), rng.New(5), blind.MethodHard, dataset.NewSliceStream(archive), appendSink(got)); err != nil {
		t.Fatal(err)
	}
	rp, err := core.NewRepairer(plan, rng.New(5), core.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := dataset.NewTable(archive.Dim(), archive.Names())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.RepairStream(dataset.NewSliceStream(archive), want.Append); err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, got, want)

	cfg := fairmetrics.Config{Estimator: fairmetrics.EstimatorPlugin}
	before, err := fairmetrics.E(archive, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := fairmetrics.E(got, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(after < before/3) {
		t.Errorf("serial stream repair too weak: E %.4f -> %.4f", before, after)
	}
}

// TestEngineConcurrentRequests hammers one engine from several goroutines;
// under -race this certifies the shared-sampler path.
func TestEngineConcurrentRequests(t *testing.T) {
	plan, _, archive := testData(t, 4, 250, 800, 30)
	engine, err := NewEngine(plan, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	outs := make([]*dataset.Table, 6)
	for g := range outs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out, _, _, err := engine.RepairTable(rng.New(99), blind.MethodHard, archive)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			outs[g] = out
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(outs); g++ {
		tablesEqual(t, outs[0], outs[g])
	}
	if got := engine.Totals().Records; got != int64(6*archive.Len()) {
		t.Errorf("totals records = %d, want %d", got, 6*archive.Len())
	}
}
