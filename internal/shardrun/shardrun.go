// Package shardrun is the deterministic table-shard runner under the
// serving engine's table repairs (repairsvc.Engine.RepairTable, labelled
// and s-unlabelled alike). Algorithm 2 treats every archival record
// independently, so a table batches as records fanned across contiguous
// shards on split RNG streams, and the determinism-critical split formula
// lives here, in one place; shardrun depends only on internal/rng.
//
// Determinism contract, pinned by the engine's differential tests: a
// table fans [0, n) across contiguous shards; shard w covers
// [w·n/W, (w+1)·n/W) and draws from r.Split(w), where W is the worker
// count clamped to n. A table smaller than two shards collapses to ONE
// shard covering everything on r.Split(0). Streams are not sharded: the
// engine repairs them serially on the caller's RNG, in input order, as
// Algorithm 2 applies the plan to off-sample records.
//
// Cancellation contract: TableObs takes a context and returns ctx.Err()
// before any shard launches when it is already cancelled (stopping a
// running shard is the closure's job). Worker panics are isolated per
// shard: a panicking shard closure fails the run with a typed
// *ShardPanicError carrying the shard's coordinates instead of killing
// the process.
package shardrun

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"otfair/internal/rng"
)

// Options are the sharding knobs the serving engine exposes. The zero
// value means GOMAXPROCS workers; a negative value is rejected by
// WithDefaults rather than being silently clamped.
type Options struct {
	// Workers is the table fan-out (0 = GOMAXPROCS, 1 = serial).
	Workers int
}

// OptionError reports a nonsensical Options field. Both engines used to
// clamp such values silently (and could drift in how); now there is one
// validation path and it is loud.
type OptionError struct {
	Field string
	Value int
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("shardrun: %s = %d is out of range (use 0 for the default)", e.Field, e.Value)
}

// WithDefaults validates o and fills in defaults: Workers 0 becomes
// GOMAXPROCS. A negative value returns a *OptionError instead of being
// clamped.
func (o Options) WithDefaults() (Options, error) {
	if o.Workers < 0 {
		return o, &OptionError{Field: "Workers", Value: o.Workers}
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o, nil
}

// Slots returns how many shard slots a runner can actually use for n
// items — min(workers, n), floored at 1 (a single Split(0) shard runs even
// for empty input). Callers size their per-shard state (diagnostics,
// stats, scratch) with this instead of the raw worker count, so a
// fan-out of a billion costs goroutines and memory proportional to the
// data, never to the number.
func Slots(workers, n int) int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// firstErr returns the lowest-shard-index error, matching the aggregation
// order the engines always used.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ShardPanicError reports a panic inside one shard closure, converted to
// an error so a panicking worker fails only the request that ran it — the
// serving process and every other in-flight request survive. The shard's
// coordinates identify exactly which slice of the table was being
// repaired when the worker died.
type ShardPanicError struct {
	// Shard is the shard index; [Lo, Hi) is the index range it covered.
	Shard, Lo, Hi int
	// Value is the recovered panic value; Stack the worker's stack at the
	// point of the panic.
	Value any
	Stack []byte
}

func (e *ShardPanicError) Error() string {
	return fmt.Sprintf("shardrun: panic in shard %d [%d,%d): %v", e.Shard, e.Lo, e.Hi, e.Value)
}

// callShard runs one shard closure with panic isolation: a panic becomes
// a typed *ShardPanicError instead of unwinding into the runner (and,
// for goroutine shards, killing the process). With o non-nil the shard's
// wall time and outcome are recorded; the clock is only read when
// instrumented, so the uninstrumented cost is one pointer check.
func callShard(o *Obs, w, lo, hi int, f func() error) (err error) {
	var start time.Time
	if o != nil {
		start = time.Now() //otfair:nondet-ok shard wall-time instrumentation; outputs are merged by index, not by time
	}
	defer func() {
		v := recover()
		if v != nil {
			err = &ShardPanicError{Shard: w, Lo: lo, Hi: hi, Value: v, Stack: debug.Stack()}
		}
		if o != nil {
			//otfair:nondet-ok shard wall-time instrumentation; outputs are merged by index, not by time
			o.shardDone(time.Since(start), v != nil)
		}
	}()
	return f()
}

// IsolatedObs runs f under the same panic isolation the table fan-out
// applies, for the engine's serial paths (every stream, and a table at
// workers == 1): a panic inside f returns as a *ShardPanicError for shard
// 0 instead of unwinding into the caller. The shard's wall time and
// outcome are recorded on o (nil o = uninstrumented).
func IsolatedObs(o *Obs, f func() error) error {
	return callShard(o, 0, 0, 0, f)
}

// TableObs fans the index range [0, n) across contiguous shards. Shard w
// covers [w·n/W, (w+1)·n/W) and receives the child stream r.Split(w),
// where W = min(workers, n); when fewer than two shards remain after the
// clamp, the whole range runs as one shard on r.Split(0) in the calling
// goroutine. The shard closure owns all per-shard state (repairers,
// diagnostics slots); TableObs only orchestrates. On error the
// lowest-indexed shard's error is returned; a panicking shard yields a
// *ShardPanicError. A ctx already cancelled at entry returns ctx.Err()
// before any shard runs (prompt cancellation inside a running shard is
// the closure's job — the engine checks ctx at span granularity).
//
// Per-shard wall timings and counts are recorded on o (nil o =
// uninstrumented). Instrumentation never influences the sharding or the
// split streams, so the output is byte-identical either way.
func TableObs(ctx context.Context, r *rng.RNG, workers, n int, o *Obs, shard func(shard int, r *rng.RNG, lo, hi int) error) error {
	if r == nil {
		return errors.New("shardrun: nil rng")
	}
	if shard == nil {
		return errors.New("shardrun: nil shard func")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return callShard(o, 0, 0, n, func() error { return shard(0, r.Split(0), 0, n) })
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = callShard(o, w, lo, hi, func() error { return shard(w, r.Split(uint64(w)), lo, hi) })
		}(w, lo, hi)
	}
	wg.Wait()
	return firstErr(errs)
}
