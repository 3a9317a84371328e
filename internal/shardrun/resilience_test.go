package shardrun

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"otfair/internal/rng"
)

// TestTablePanicIsolation pins panic-to-error conversion in both the
// goroutine fan-out and the single-shard fast path: the panic becomes a
// typed *ShardPanicError carrying the shard's coordinates, and the other
// shards' work is unaffected (no process death, no corrupted slots).
func TestTablePanicIsolation(t *testing.T) {
	done := make([]bool, 4)
	err := Table(context.Background(), rng.New(1), 4, 400, func(w int, r *rng.RNG, lo, hi int) error {
		if w == 2 {
			panic(fmt.Sprintf("worker %d died", w))
		}
		done[w] = true
		return nil
	})
	var pe *ShardPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ShardPanicError", err)
	}
	if pe.Shard != 2 || pe.Stream || pe.Lo != 200 || pe.Hi != 300 {
		t.Fatalf("panic coordinates %+v, want shard 2 [200,300) table mode", pe)
	}
	if pe.Value != "worker 2 died" {
		t.Fatalf("panic value %v not preserved", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "TestTablePanicIsolation") {
		t.Fatal("panic stack not captured")
	}
	for _, w := range []int{0, 1, 3} {
		if !done[w] {
			t.Fatalf("healthy shard %d did not finish", w)
		}
	}

	// Single-shard fast path (workers clamped to 1) runs in the calling
	// goroutine; the recover must cover it too.
	err = Table(context.Background(), rng.New(1), 1, 10, func(w int, r *rng.RNG, lo, hi int) error {
		panic("serial shard died")
	})
	if !errors.As(err, &pe) || pe.Shard != 0 || pe.Hi != 10 {
		t.Fatalf("serial panic: err = %v, want shard 0 [0,10)", err)
	}
}

// TestStreamPanicIsolation pins the chunk coordinates on the typed error
// and that no drain happens for the poisoned chunk.
func TestStreamPanicIsolation(t *testing.T) {
	var drained int
	err := Stream(context.Background(), rng.New(1), Options{Workers: 2, ChunkSize: 4}, sliceSource([]int{1, 2, 3, 4, 5, 6, 7, 8}),
		func(chunk uint64, w int, r *rng.RNG, in, out []int, lo, hi int) error {
			if chunk == 1 && w == 1 {
				panic("chunk 1 shard 1 died")
			}
			copy(out[lo:hi], in[lo:hi])
			return nil
		},
		func(_, out []int) error { drained += len(out); return nil })
	var pe *ShardPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ShardPanicError", err)
	}
	if !pe.Stream || pe.Chunk != 1 || pe.Shard != 1 {
		t.Fatalf("panic coordinates %+v, want stream chunk 1 shard 1", pe)
	}
	if drained != 4 {
		t.Fatalf("drained %d records, want only the healthy chunk (4)", drained)
	}
}

// TestTableCancelledBeforeStart returns ctx.Err() without running any
// shard.
func TestTableCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := Table(ctx, rng.New(1), 2, 10, func(w int, r *rng.RNG, lo, hi int) error {
		ran = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("shard ran despite cancelled context")
	}
}

// TestStreamCancellationPrefix is the determinism-under-cancellation
// contract: cancelling mid-stream yields ctx.Err(), and everything the
// sink saw is a whole-chunk prefix, byte-identical to the uncancelled run
// (the per-(chunk, shard) RNG pinning survives truncation).
func TestStreamCancellationPrefix(t *testing.T) {
	xs := make([]int, 256)
	for i := range xs {
		xs[i] = i
	}
	run := func(cancelAfterChunks int) ([]int, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var out []int
		chunks := 0
		err := Stream(ctx, rng.New(3), Options{Workers: 3, ChunkSize: 16}, sliceSource(xs),
			func(chunk uint64, w int, r *rng.RNG, in, dst []int, lo, hi int) error {
				for i := lo; i < hi; i++ {
					dst[i] = in[i] + int(r.Uint64()%1000)
				}
				return nil
			},
			func(_, dst []int) error {
				out = append(out, dst...)
				chunks++
				if chunks == cancelAfterChunks {
					cancel()
				}
				return nil
			})
		return out, err
	}
	full, err := run(0)
	if err != nil || len(full) != len(xs) {
		t.Fatalf("uncancelled run: %d records, err %v", len(full), err)
	}
	for _, after := range []int{1, 3, 7} {
		got, err := run(after)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel after %d chunks: err = %v, want context.Canceled", after, err)
		}
		if len(got) != after*16 {
			t.Fatalf("cancel after %d chunks: sank %d records, want %d (whole chunks)", after, len(got), after*16)
		}
		for i := range got {
			if got[i] != full[i] {
				t.Fatalf("cancel after %d chunks: output %d diverged (%d vs %d) — RNG pinning broken", after, i, got[i], full[i])
			}
		}
	}
}

// TestStreamCancelRace drives cancellation concurrently with shard work
// under -race: no matter when the cancel lands, the runner exits with
// either a clean EOF or ctx.Err(), never a corrupted chunk.
func TestStreamCancelRace(t *testing.T) {
	xs := make([]int, 512)
	for i := range xs {
		xs[i] = i
	}
	for trial := 0; trial < 8; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			cancel()
		}()
		var out []int
		err := Stream(ctx, rng.New(7), Options{Workers: 4, ChunkSize: 32}, sliceSource(xs),
			func(chunk uint64, w int, r *rng.RNG, in, dst []int, lo, hi int) error {
				copy(dst[lo:hi], in[lo:hi])
				return nil
			},
			func(_, dst []int) error { out = append(out, dst...); return nil })
		wg.Wait()
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: err = %v", trial, err)
		}
		if len(out)%32 != 0 && len(out) != len(xs) {
			t.Fatalf("trial %d: sank %d records, not a whole-chunk prefix", trial, len(out))
		}
		for i := range out {
			if out[i] != xs[i] {
				t.Fatalf("trial %d: output %d corrupted", trial, i)
			}
		}
	}
}
