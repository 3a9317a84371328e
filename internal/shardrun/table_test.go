package shardrun

import (
	"context"

	"otfair/internal/rng"
)

// Table is TableObs uninstrumented, the form most tests drive.
func Table(ctx context.Context, r *rng.RNG, workers, n int, shard func(shard int, r *rng.RNG, lo, hi int) error) error {
	return TableObs(ctx, r, workers, n, nil, shard)
}
