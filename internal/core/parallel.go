package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"otfair/internal/dataset"
	"otfair/internal/rng"
	"otfair/internal/shardrun"
)

// RepairTableParallel repairs a table across workers goroutines
// (0 = GOMAXPROCS). Each worker owns an independent Repairer seeded with a
// deterministic Split of the caller's RNG and a contiguous shard of the
// table, so the result is reproducible for a fixed (seed, table) regardless
// of scheduling — the property the Monte-Carlo harness depends on. The
// returned diagnostics aggregate all workers.
//
// This is the high-throughput batch variant of Algorithm 2 for archival
// backfills; the streaming path (Repairer.RepairStream) remains the
// online-deployment mode.
func RepairTableParallel(plan *Plan, r *rng.RNG, opts RepairOptions, t *dataset.Table, workers int) (*dataset.Table, Diagnostics, error) {
	var diag Diagnostics
	if plan == nil {
		return nil, diag, errors.New("core: nil plan")
	}
	if r == nil {
		return nil, diag, errors.New("core: nil rng")
	}
	if t == nil {
		return nil, diag, errors.New("core: nil table")
	}
	if t.Dim() != plan.Dim {
		return nil, diag, fmt.Errorf("core: table dimension %d does not match plan %d", t.Dim(), plan.Dim)
	}
	// One immutable sampler serves every shard: the alias tables are built
	// once per plan, not once per worker.
	sampler, err := NewPlanSampler(plan)
	if err != nil {
		return nil, diag, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := t.Len()
	repaired := make([]dataset.Record, n)
	// Per-shard slots are bounded by the table, not the requested fan-out,
	// so an absurd worker count cannot balloon the allocation.
	diags := make([]Diagnostics, shardrun.Slots(workers, n))
	err = shardrun.TableObs(context.Background(), r, workers, n, nil, func(w int, rr *rng.RNG, lo, hi int) error {
		rp, err := NewRepairerShared(sampler, rr, opts)
		if err != nil {
			return err
		}
		xs := make([]float64, (hi-lo)*t.Dim())
		if err := rp.repairSpan(lo, t.Records()[lo:hi], repaired[lo:hi], xs); err != nil {
			return err
		}
		diags[w] = rp.Diagnostics()
		return nil
	})
	if err != nil {
		return nil, diag, err
	}
	for _, d := range diags {
		diag.Merge(d)
	}
	out, err := dataset.NewTable(t.Dim(), t.Names())
	if err != nil {
		return nil, diag, err
	}
	if err := out.AppendAll(repaired); err != nil {
		return nil, diag, err
	}
	return out, diag, nil
}
