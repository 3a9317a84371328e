package shardrun

import (
	"context"
	"errors"
	"testing"

	"otfair/internal/obs"
	"otfair/internal/rng"
)

func newObs() *Obs {
	return &Obs{
		ShardSeconds: obs.NewHistogram(obs.DefLatencyBuckets()),
		Shards:       &obs.Counter{},
		Panics:       &obs.Counter{},
	}
}

// TestTableObsCountsAndDeterminism pins that instrumentation records every
// shard exactly once and never perturbs the output: the same (seed, n,
// workers) run with and without Obs produces identical per-index values.
func TestTableObsCountsAndDeterminism(t *testing.T) {
	const n, workers = 100, 4
	run := func(o *Obs) []uint64 {
		out := make([]uint64, n)
		err := TableObs(context.Background(), rng.New(9), workers, n, o, func(w int, r *rng.RNG, lo, hi int) error {
			for i := lo; i < hi; i++ {
				out[i] = r.Uint64()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	o := newObs()
	a, b := run(o), run(nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("index %d: instrumented %d != plain %d", i, a[i], b[i])
		}
	}
	if got := o.Shards.Load(); got != workers {
		t.Fatalf("Shards = %d, want %d", got, workers)
	}
	if got := o.ShardSeconds.Snapshot().Count; got != workers {
		t.Fatalf("ShardSeconds count = %d, want %d", got, workers)
	}
	if o.Panics.Load() != 0 {
		t.Fatalf("Panics = %d, want 0", o.Panics.Load())
	}
}

func TestObsCountsPanics(t *testing.T) {
	o := newObs()
	err := IsolatedObs(o, func() error { panic("boom") })
	var pe *ShardPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ShardPanicError", err)
	}
	if o.Panics.Load() != 1 || o.Shards.Load() != 1 {
		t.Fatalf("panics=%d shards=%d, want 1/1", o.Panics.Load(), o.Shards.Load())
	}
	// The panicking shard's time is still observed.
	if o.ShardSeconds.Snapshot().Count != 1 {
		t.Fatal("panicking shard's duration not observed")
	}
}

func TestNilObsSafe(t *testing.T) {
	var o *Obs
	o.shardDone(0, true)
	if err := IsolatedObs(nil, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
}
