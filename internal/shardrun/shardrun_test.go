package shardrun

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"otfair/internal/rng"
)

// TestOptionsDefaults pins the defaulting rules the serving engine relies on.
func TestOptionsDefaults(t *testing.T) {
	o, err := Options{}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if o.Workers < 1 {
		t.Errorf("defaulted Workers = %d, want >= 1", o.Workers)
	}
	o, err = Options{Workers: 3}.WithDefaults()
	if err != nil || o.Workers != 3 {
		t.Errorf("explicit options mangled: %+v, %v", o, err)
	}
}

// TestOptionsRejectNegative is the typed-error contract: nonsensical values
// fail loudly instead of being clamped.
func TestOptionsRejectNegative(t *testing.T) {
	for _, o := range []Options{{Workers: -1}, {Workers: -7}} {
		_, err := o.WithDefaults()
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Fatalf("WithDefaults(%+v) = %v, want *OptionError", o, err)
		}
		if oe.Value >= 0 {
			t.Errorf("OptionError reports value %d for %+v", oe.Value, o)
		}
	}
}

// TestSlots pins the per-shard state sizing rule: bounded by the data,
// floored at one (the Split(0) shard runs even on empty input).
func TestSlots(t *testing.T) {
	cases := []struct{ workers, n, want int }{
		{1, 100, 1}, {4, 100, 4}, {100, 4, 4}, {1 << 30, 3, 3}, {8, 0, 1}, {0, 5, 1},
	}
	for _, c := range cases {
		if got := Slots(c.workers, c.n); got != c.want {
			t.Errorf("Slots(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

// tableTrace runs Table with a worker that records, per index, which shard
// repaired it and a value drawn from the shard's RNG stream — a stand-in
// for the engines' repairers that exposes both the partition and the
// stream assignment.
func tableTrace(t *testing.T, seed uint64, workers, n int) (shards []int, draws []uint64) {
	t.Helper()
	shards = make([]int, n)
	draws = make([]uint64, n)
	err := Table(context.Background(), rng.New(seed), workers, n, func(w int, r *rng.RNG, lo, hi int) error {
		for i := lo; i < hi; i++ {
			shards[i] = w
			draws[i] = r.Uint64()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return shards, draws
}

// TestTablePartitionProperty checks, over many (n, workers) shapes, that
// shards are contiguous, cover [0, n) exactly once, and that shard w's
// stream is r.Split(w) — with the clamp to a single Split(0) shard when
// the table is smaller than the fan-out.
func TestTablePartitionProperty(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		for _, workers := range []int{1, 2, 3, 8, 63, 200} {
			shards, draws := tableTrace(t, 42, workers, n)
			clamped := workers
			if clamped > n {
				clamped = n
			}
			if clamped < 1 {
				clamped = 1
			}
			r := rng.New(42)
			streams := make(map[int]*rng.RNG)
			prev := 0
			for i := 0; i < n; i++ {
				w := shards[i]
				if w < prev || w >= clamped {
					t.Fatalf("n=%d workers=%d: index %d on shard %d (clamped fan-out %d)", n, workers, i, w, clamped)
				}
				prev = w
				if _, ok := streams[w]; !ok {
					streams[w] = r.Split(uint64(w))
				}
				if want := streams[w].Uint64(); draws[i] != want {
					t.Fatalf("n=%d workers=%d: index %d drew %d, want %d from Split(%d)", n, workers, i, draws[i], want, w)
				}
			}
		}
	}
}

// TestTableClampInvariance is the property the engines' tiny-table pins
// rest on: once the fan-out exceeds the table, output is invariant to the
// exact worker count — every workers >= n produces the trace of workers
// == n (and n <= 1 always lands on the single Split(0) shard).
func TestTableClampInvariance(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 17} {
		base := n
		if base < 1 {
			base = 1
		}
		_, want := tableTrace(t, 7, base, n)
		for _, workers := range []int{n + 1, n + 3, 10 * (n + 1)} {
			_, got := tableTrace(t, 7, workers, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d: workers=%d draw %d differs from workers=%d", n, workers, i, base)
				}
			}
		}
	}
}

// TestTableErrorPropagation returns the lowest-indexed shard error.
func TestTableErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	err := Table(context.Background(), rng.New(1), 4, 100, func(w int, r *rng.RNG, lo, hi int) error {
		if w >= 2 {
			return fmt.Errorf("shard %d: %w", w, boom)
		}
		return nil
	})
	if !errors.Is(err, boom) || err.Error() != "shard 2: boom" {
		t.Fatalf("err = %v, want shard 2's", err)
	}
}
