package shardrun

import (
	"context"
	"errors"
	"fmt"
	"strings"
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
	if pe.Shard != 2 || pe.Lo != 200 || pe.Hi != 300 {
		t.Fatalf("panic coordinates %+v, want shard 2 [200,300)", pe)
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
