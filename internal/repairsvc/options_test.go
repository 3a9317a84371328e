package repairsvc

import (
	"context"
	"errors"
	"testing"

	"otfair/internal/blind"
	"otfair/internal/dataset"
	"otfair/internal/rng"
	"otfair/internal/shardrun"
)

// TestEngineRejectsNegativeOptions: option validation lives in
// shardrun.Options.WithDefaults — nonsensical values return a typed error
// instead of being clamped silently, at bind time and on the per-request
// WithWorkers override alike.
func TestEngineRejectsNegativeOptions(t *testing.T) {
	plan, _, _ := testData(t, 40, 250, 10, 20)
	for _, opts := range []Options{{Workers: -1}, {ChunkSize: -1}, {Workers: -3, ChunkSize: -4096}} {
		_, err := NewEngine(plan, opts)
		var oe *shardrun.OptionError
		if !errors.As(err, &oe) {
			t.Errorf("NewEngine(%+v) = %v, want *shardrun.OptionError", opts, err)
		}
	}
	// Zero still means "defaults".
	if _, err := NewEngine(plan, Options{}); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
	engine, err := NewEngine(plan, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.WithWorkers(-2); err == nil {
		t.Error("WithWorkers(-2) accepted")
	}
}

// TestEngineAbsurdFanOutStaysCheap: a request-supplied worker count far
// beyond the data (the ?workers= path) must cost memory and goroutines
// proportional to the records, not the number — per-shard state is sized
// by shardrun.Slots. The repair itself must still complete and stay
// deterministic.
func TestEngineAbsurdFanOutStaysCheap(t *testing.T) {
	plan, _, archive := testData(t, 41, 250, 64, 20)
	engine, err := NewEngine(plan, Options{Workers: 1 << 30, ChunkSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	run := func() *dataset.Table {
		out, _, _, err := engine.RepairTable(rng.New(2), blind.MethodHard, archive)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := dataset.NewTable(archive.Dim(), archive.Names())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := engine.RepairStreamContext(context.Background(), rng.New(2), blind.MethodHard, dataset.NewSliceStream(archive), appendSink(streamed)); err != nil {
			t.Fatal(err)
		}
		return out
	}
	tablesEqual(t, run(), run())
}
