// Package shardrun is the deterministic chunked-shard runner under every
// batched repair path: the serving engine (repairsvc.Engine, labelled and
// s-unlabelled streams alike) and core.RepairTableParallel. Algorithm 2
// treats every archival record independently, so all of them batch the
// same way — records fanned across contiguous shards on split RNG
// streams — and the determinism-critical split formulas live here, in
// one place; shardrun depends only on internal/rng.
//
// Determinism contract, pinned by the engine's differential tests:
//
//   - Table mode fans [0, n) across contiguous shards; shard w covers
//     [w·n/W, (w+1)·n/W) and draws from r.Split(w), where W is the worker
//     count clamped to n. A table smaller than two shards collapses to ONE
//     shard covering everything on r.Split(0) — the clamp rule
//     core.RepairTableParallel established.
//   - Stream mode reads chunks of Options.ChunkSize; shard w of chunk c
//     draws from r.Split(c·W + w) with W the configured (unclamped) worker
//     count, so the stream of a fixed (seed, workers, chunk size) is
//     reproducible regardless of scheduling and of how the reader frames
//     its input. The drain (sink) always runs serially, in input order,
//     from the calling goroutine, and at most one chunk is in memory.
//
// Cancellation contract (the resilience layer's addition): Table and
// Stream take a context and stop promptly when it is cancelled —
// between shards' launch in table mode, and between chunks (never inside
// a delivered chunk) in stream mode — returning ctx.Err(). Cancellation
// can only truncate output at those boundaries: every record the sink saw
// was produced by the same per-(chunk, shard) split stream it would have
// used in a full run, so a cancelled stream's output is a byte-identical
// prefix (at chunk granularity) of the uncancelled one. Worker panics are
// isolated per shard: a panicking shard closure fails the run with a
// typed *ShardPanicError carrying the shard's coordinates instead of
// killing the process.
package shardrun

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"otfair/internal/rng"
)

// DefaultChunkSize is the streaming chunk size used when Options.ChunkSize
// is zero.
const DefaultChunkSize = 4096

// Options are the sharding knobs both serving engines expose. The zero
// value means "defaults" (GOMAXPROCS workers, DefaultChunkSize records per
// chunk); negative values are rejected by WithDefaults rather than being
// silently clamped.
type Options struct {
	// Workers is the shard fan-out (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// ChunkSize is the number of records per parallel wave in stream mode
	// (0 = DefaultChunkSize). Larger chunks amortize fan-out overhead;
	// smaller chunks bound latency and memory.
	ChunkSize int
	// Obs receives shard/chunk timings and counts (nil = uninstrumented).
	// It never influences execution, so two runs differing only in Obs are
	// byte-identical.
	Obs *Obs
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
// GOMAXPROCS, ChunkSize 0 becomes DefaultChunkSize. Negative values return
// a *OptionError instead of being clamped.
func (o Options) WithDefaults() (Options, error) {
	if o.Workers < 0 {
		return o, &OptionError{Field: "Workers", Value: o.Workers}
	}
	if o.ChunkSize < 0 {
		return o, &OptionError{Field: "ChunkSize", Value: o.ChunkSize}
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ChunkSize == 0 {
		o.ChunkSize = DefaultChunkSize
	}
	return o, nil
}

// Slots returns how many shard slots a runner can actually use for n
// items — min(workers, n), floored at 1 (a single Split(0) shard runs even
// for empty input). Callers size their per-shard state (diagnostics,
// stats, scratch) with this instead of the raw worker count, so a
// request-supplied fan-out of a billion costs goroutines and memory
// proportional to the data, never to the number. The RNG split formulas
// are unaffected: they use the configured worker count, not the slot
// count.
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
// coordinates identify exactly which slice of which chunk was being
// repaired when the worker died.
type ShardPanicError struct {
	// Chunk is the stream-mode chunk index (always 0 in table mode).
	Chunk uint64
	// Stream reports which mode the shard ran in.
	Stream bool
	// Shard is the shard index; [Lo, Hi) is the index range it covered.
	Shard, Lo, Hi int
	// Value is the recovered panic value; Stack the worker's stack at the
	// point of the panic.
	Value any
	Stack []byte
}

func (e *ShardPanicError) Error() string {
	if e.Stream {
		return fmt.Sprintf("shardrun: panic in chunk %d shard %d [%d,%d): %v", e.Chunk, e.Shard, e.Lo, e.Hi, e.Value)
	}
	return fmt.Sprintf("shardrun: panic in shard %d [%d,%d): %v", e.Shard, e.Lo, e.Hi, e.Value)
}

// callShard runs one shard closure with panic isolation: a panic becomes
// a typed *ShardPanicError instead of unwinding into the runner (and,
// for goroutine shards, killing the process). With o non-nil the shard's
// wall time and outcome are recorded; the clock is only read when
// instrumented, so the uninstrumented cost is one pointer check.
func callShard(o *Obs, chunk uint64, stream bool, w, lo, hi int, f func() error) (err error) {
	var start time.Time
	if o != nil {
		start = time.Now() //otfair:nondet-ok shard wall-time instrumentation; outputs are merged by index, not by time
	}
	defer func() {
		v := recover()
		if v != nil {
			err = &ShardPanicError{Chunk: chunk, Stream: stream, Shard: w, Lo: lo, Hi: hi, Value: v, Stack: debug.Stack()}
		}
		if o != nil {
			//otfair:nondet-ok shard wall-time instrumentation; outputs are merged by index, not by time
			o.shardDone(time.Since(start), v != nil)
		}
	}()
	return f()
}

// IsolatedObs runs f under the same panic isolation the shard runners
// apply, for the engine's serial (workers == 1) paths that bypass the
// fan-out: a panic inside f returns as a *ShardPanicError for shard 0
// instead of unwinding into the caller. The shard's wall time and outcome
// are recorded on o (nil o = uninstrumented).
func IsolatedObs(o *Obs, f func() error) error {
	return callShard(o, 0, false, 0, 0, 0, f)
}

// Table fans the index range [0, n) across contiguous shards. Shard w
// covers [w·n/W, (w+1)·n/W) and receives the child stream r.Split(w),
// where W = min(workers, n); when fewer than two shards remain after the
// clamp, the whole range runs as one shard on r.Split(0) in the calling
// goroutine. The shard closure owns all per-shard state (repairers,
// diagnostics slots); Table only orchestrates. On error the
// lowest-indexed shard's error is returned; a panicking shard yields a
// *ShardPanicError. A ctx already cancelled at entry returns ctx.Err()
// before any shard runs (prompt cancellation inside a running shard is
// the closure's job — the engines check ctx at span granularity).
func Table(ctx context.Context, r *rng.RNG, workers, n int, shard func(shard int, r *rng.RNG, lo, hi int) error) error {
	return TableObs(ctx, r, workers, n, nil, shard)
}

// TableObs is Table with per-shard wall timings and counts recorded on o
// (nil o = plain Table). Instrumentation never influences the sharding or
// the split streams, so the output is byte-identical either way.
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
		return callShard(o, 0, false, 0, 0, n, func() error { return shard(0, r.Split(0), 0, n) })
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = callShard(o, 0, false, w, lo, hi, func() error { return shard(w, r.Split(uint64(w)), lo, hi) })
		}(w, lo, hi)
	}
	wg.Wait()
	return firstErr(errs)
}

// Stream consumes records from next (terminated by io.EOF) in chunks of
// opts.ChunkSize and fans each chunk across contiguous shards: shard w of
// chunk c covers [w·n/W', (w+1)·n/W') of the chunk (W' = Workers clamped
// to the chunk length) and receives the child stream
// r.Split(c·Workers + w) — the unclamped worker count keeps the split
// formula independent of how full the final chunk is. After a chunk's
// shards finish, drain is invoked serially from the calling goroutine with
// the chunk's outputs in input order; the caller sinks records and merges
// per-shard state there (in shard-index order, so floating-point
// accumulations stay bit-stable). The in/out buffers are reused across
// chunks — at most one chunk is in memory — so drain must not retain the
// slice.
//
// A read error aborts immediately (records already read in the aborted
// chunk are dropped, never repaired); a shard error aborts before drain,
// so a chunk reaches the sink all-or-nothing. Cancelling ctx aborts with
// ctx.Err() at the next chunk boundary — before the chunk is read, and
// again before it is drained — so a cancelled stream's sink saw a
// byte-identical prefix (whole chunks) of the uncancelled run's output.
func Stream[T any](
	ctx context.Context,
	r *rng.RNG,
	opts Options,
	next func() (T, error),
	shard func(chunk uint64, shard int, r *rng.RNG, in, out []T, lo, hi int) error,
	drain func(out []T) error,
) error {
	if r == nil {
		return errors.New("shardrun: nil rng")
	}
	if next == nil {
		return errors.New("shardrun: nil next func")
	}
	if shard == nil {
		return errors.New("shardrun: nil shard func")
	}
	if drain == nil {
		return errors.New("shardrun: nil drain func")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opts, err := opts.WithDefaults()
	if err != nil {
		return err
	}
	in := make([]T, 0, opts.ChunkSize)
	out := make([]T, opts.ChunkSize)
	var chunkIdx uint64
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		in = in[:0]
		var streamErr error
		for len(in) < opts.ChunkSize {
			rec, err := next()
			if err == io.EOF {
				streamErr = io.EOF
				break
			}
			if err != nil {
				return err
			}
			in = append(in, rec)
		}
		if len(in) > 0 {
			if err := runChunk(opts.Obs, r, chunkIdx, opts.Workers, in, out, shard); err != nil {
				return err
			}
			// Cancelled while the shards ran: drop the completed chunk
			// rather than drain it — the contract is truncation at a chunk
			// boundary, and a caller that cancelled wants no more output.
			if err := ctx.Err(); err != nil {
				return err
			}
			opts.Obs.chunkDone(len(in))
			if err := drain(out[:len(in)]); err != nil {
				return err
			}
			chunkIdx++
		}
		if streamErr == io.EOF {
			return nil
		}
	}
}

// runChunk fans one chunk across shards with the per-(chunk, shard) split
// formula.
func runChunk[T any](o *Obs, r *rng.RNG, chunk uint64, workers int, in, out []T, shard func(chunk uint64, shard int, r *rng.RNG, in, out []T, lo, hi int) error) error {
	n := len(in)
	streamStride := uint64(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return callShard(o, chunk, true, 0, 0, n, func() error {
			return shard(chunk, 0, r.Split(chunk*streamStride), in, out, 0, n)
		})
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = callShard(o, chunk, true, w, lo, hi, func() error {
				return shard(chunk, w, r.Split(chunk*streamStride+uint64(w)), in, out, lo, hi)
			})
		}(w, lo, hi)
	}
	wg.Wait()
	return firstErr(errs)
}
