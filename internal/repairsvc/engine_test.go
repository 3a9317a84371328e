package repairsvc

import (
	"sync"
	"testing"

	"otfair/internal/blind"
	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/fairmetrics"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

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
	n, _, _, err := engine.RepairStream(rng.New(11), blind.MethodHard, dataset.NewSliceStream(archive), streamed.Append)
	if err != nil {
		t.Fatal(err)
	}
	if n != archive.Len() {
		t.Fatalf("streamed %d of %d", n, archive.Len())
	}
	tablesEqual(t, streamed, want)
}

// TestEngineParallelMatchesCoreParallel pins workers=w to
// core.RepairTableParallel with the same w.
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
			want, _, err := core.RepairTableParallel(plan, rng.New(3), core.RepairOptions{}, tbl, workers)
			if err != nil {
				t.Fatal(err)
			}
			tablesEqual(t, got, want)
		}
	}
}

// TestEngineStreamDeterministicAndEffective checks the chunked parallel
// streaming mode: reproducible for fixed (seed, workers, chunk), and the
// output actually repairs.
func TestEngineStreamDeterministicAndEffective(t *testing.T) {
	plan, _, archive := testData(t, 3, 400, 3000, 50)
	engine, err := NewEngine(plan, Options{Workers: 4, ChunkSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	run := func() *dataset.Table {
		out, err := dataset.NewTable(archive.Dim(), archive.Names())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := engine.RepairStream(rng.New(5), blind.MethodHard, dataset.NewSliceStream(archive), out.Append); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	tablesEqual(t, a, b)

	cfg := fairmetrics.Config{Estimator: fairmetrics.EstimatorPlugin}
	before, err := fairmetrics.E(archive, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := fairmetrics.E(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(after < before/3) {
		t.Errorf("chunked parallel repair too weak: E %.4f -> %.4f", before, after)
	}
}

// TestEngineConcurrentRequests hammers one engine from several goroutines;
// under -race this certifies the shared-sampler path.
func TestEngineConcurrentRequests(t *testing.T) {
	plan, _, archive := testData(t, 4, 250, 800, 30)
	engine, err := NewEngine(plan, Options{Workers: 2, ChunkSize: 256})
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
