package shardrun

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

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
	if o.ChunkSize != DefaultChunkSize {
		t.Errorf("defaulted ChunkSize = %d, want %d", o.ChunkSize, DefaultChunkSize)
	}
	o, err = Options{Workers: 3, ChunkSize: 17}.WithDefaults()
	if err != nil || o.Workers != 3 || o.ChunkSize != 17 {
		t.Errorf("explicit options mangled: %+v, %v", o, err)
	}
}

// TestOptionsRejectNegative is the typed-error contract: nonsensical values
// fail loudly instead of being clamped.
func TestOptionsRejectNegative(t *testing.T) {
	for _, o := range []Options{{Workers: -1}, {ChunkSize: -4096}, {Workers: -7, ChunkSize: -1}} {
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

// sliceSource yields ints one at a time, ending with io.EOF.
func sliceSource(xs []int) func() (int, error) {
	i := 0
	return func() (int, error) {
		if i >= len(xs) {
			return 0, io.EOF
		}
		x := xs[i]
		i++
		return x, nil
	}
}

// rebufferedSource yields the same records but through an internal
// refill buffer of varying sizes — a reader with different framing.
func rebufferedSource(xs []int, frames []int) func() (int, error) {
	var buf []int
	next, fi := 0, 0
	return func() (int, error) {
		if len(buf) == 0 {
			if next >= len(xs) {
				return 0, io.EOF
			}
			size := frames[fi%len(frames)]
			fi++
			end := next + size
			if end > len(xs) {
				end = len(xs)
			}
			buf = xs[next:end]
			next = end
		}
		x := buf[0]
		buf = buf[1:]
		return x, nil
	}
}

// streamTrace captures everything observable about a Stream run: the
// (chunk, shard, lo, hi, first-draw) tuples and the drained output.
func streamTrace(t *testing.T, opts Options, next func() (int, error)) (calls []string, out []int) {
	t.Helper()
	var mu sync.Mutex
	err := Stream(context.Background(), rng.New(9), opts, next,
		func(chunk uint64, w int, r *rng.RNG, in, dst []int, lo, hi int) error {
			mu.Lock()
			calls = append(calls, fmt.Sprintf("c%d w%d [%d,%d) %d", chunk, w, lo, hi, r.Uint64()))
			mu.Unlock()
			for i := lo; i < hi; i++ {
				dst[i] = in[i] * 10
			}
			return nil
		},
		func(dst []int) error {
			out = append(out, dst...)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return calls, out
}

// TestStreamFramingInvariance pins the chunk-boundary contract: chunk
// boundaries (and therefore every per-(chunk, shard) RNG stream) depend
// only on ChunkSize and the record sequence, never on how the underlying
// reader frames its input.
func TestStreamFramingInvariance(t *testing.T) {
	xs := make([]int, 1000)
	for i := range xs {
		xs[i] = i
	}
	opts := Options{Workers: 3, ChunkSize: 64}
	callsA, outA := streamTrace(t, opts, sliceSource(xs))
	for _, frames := range [][]int{{1}, {7, 64, 3}, {1000}, {63, 65}} {
		callsB, outB := streamTrace(t, opts, rebufferedSource(xs, frames))
		if len(outA) != len(outB) || len(callsA) != len(callsB) {
			t.Fatalf("frames %v: shape differs", frames)
		}
		for i := range outA {
			if outA[i] != outB[i] {
				t.Fatalf("frames %v: output %d differs", frames, i)
			}
		}
		// Shard calls race within a chunk, so compare as multisets.
		seen := make(map[string]int)
		for _, c := range callsA {
			seen[c]++
		}
		for _, c := range callsB {
			seen[c]--
		}
		for c, n := range seen {
			if n != 0 {
				t.Fatalf("frames %v: call trace differs at %q", frames, c)
			}
		}
	}
}

// TestStreamSlowAdversarialSink drives the chunked runner with a sink that
// stalls (so shards of the next chunk would race a lagging drain if the
// runner ever let them) and checks full determinism across runs; the race
// job runs this under -race.
func TestStreamSlowAdversarialSink(t *testing.T) {
	xs := make([]int, 400)
	for i := range xs {
		xs[i] = 3 * i
	}
	run := func() []int {
		var out []int
		err := Stream(context.Background(), rng.New(5), Options{Workers: 4, ChunkSize: 32}, sliceSource(xs),
			func(chunk uint64, w int, r *rng.RNG, in, dst []int, lo, hi int) error {
				for i := lo; i < hi; i++ {
					dst[i] = in[i] + int(r.Uint64()%1000)
				}
				return nil
			},
			func(dst []int) error {
				time.Sleep(time.Millisecond)
				out = append(out, dst...)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(xs) {
		t.Fatalf("drained %d of %d", len(a), len(xs))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output %d nondeterministic: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestStreamErrors pins the abort semantics: a read error aborts before the
// partial chunk is repaired, a shard error aborts before drain, and a drain
// error stops the stream.
func TestStreamErrors(t *testing.T) {
	boom := errors.New("boom")
	copyShard := func(chunk uint64, w int, r *rng.RNG, in, dst []int, lo, hi int) error {
		copy(dst[lo:hi], in[lo:hi])
		return nil
	}

	reads := 0
	var drained int
	err := Stream(context.Background(), rng.New(1), Options{Workers: 2, ChunkSize: 4},
		func() (int, error) {
			reads++
			if reads > 6 {
				return 0, boom
			}
			return reads, nil
		},
		copyShard,
		func(dst []int) error { drained += len(dst); return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("read error not propagated: %v", err)
	}
	if drained != 4 {
		t.Errorf("drained %d records, want only the complete chunk (4)", drained)
	}

	drains := 0
	err = Stream(context.Background(), rng.New(1), Options{Workers: 2, ChunkSize: 4}, sliceSource([]int{1, 2, 3, 4, 5}),
		func(chunk uint64, w int, r *rng.RNG, in, dst []int, lo, hi int) error {
			if chunk == 1 {
				return boom
			}
			return copyShard(chunk, w, r, in, dst, lo, hi)
		},
		func(dst []int) error { drains++; return nil })
	if !errors.Is(err, boom) || drains != 1 {
		t.Fatalf("shard error: err=%v drains=%d, want boom after 1 drain", err, drains)
	}

	err = Stream(context.Background(), rng.New(1), Options{Workers: 2, ChunkSize: 4}, sliceSource([]int{1, 2, 3}),
		copyShard,
		func(dst []int) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("drain error not propagated: %v", err)
	}
}
