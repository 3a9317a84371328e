package shardrun

import (
	"time"

	"otfair/internal/obs"
)

// Obs is the runner's instrumentation hook set, nil-safe in the same style
// as faultinject.Injector: a nil *Obs is the production no-op, and every
// record point costs exactly one pointer check. Fields are bound by the
// serving layer at registry-assembly time; any left nil are simply not
// recorded (the obs instruments are themselves nil-safe).
//
// The runner observes at shard and chunk granularity, never per record —
// the granularity at which instrumentation is free relative to the work.
//
//otfair:nilsafe nil Obs runs the shard runner uninstrumented
type Obs struct {
	// ShardSeconds observes each shard closure's wall time, panicking
	// shards included (their time was spent too).
	ShardSeconds *obs.Histogram
	// ChunkRecords observes the record count of each chunk delivered to
	// the drain in stream mode.
	ChunkRecords *obs.Histogram
	// Shards counts shard closures run; Panics counts the subset that
	// died and were converted to *ShardPanicError.
	Shards *obs.Counter
	Panics *obs.Counter
}

// shardDone records one finished shard closure.
func (o *Obs) shardDone(d time.Duration, panicked bool) {
	if o == nil {
		return
	}
	o.Shards.Inc()
	o.ShardSeconds.ObserveDuration(d)
	if panicked {
		o.Panics.Inc()
	}
}

// chunkDone records one chunk delivered to the drain.
func (o *Obs) chunkDone(n int) {
	if o == nil {
		return
	}
	o.ChunkRecords.Observe(float64(n))
}
