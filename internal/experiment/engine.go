// Package experiment is the reproduction harness: it regenerates every
// table and figure of the paper's evaluation (Section V) plus the ablations
// DESIGN.md commits to, on top of the core repair, the simulation and Adult
// substrates, and the fairness metrics. cmd/repro is a thin CLI over this
// package; bench_test.go wraps each experiment in a testing.B benchmark.
package experiment

import (
	"fmt"
	"runtime"
	"sync"

	"otfair/internal/rng"
	"otfair/internal/stat"
)

// CellStat aggregates one reported value over Monte-Carlo replicates.
type CellStat struct {
	Mean, Std float64
	N         int
}

// MCFunc runs one replicate with its own deterministic RNG and returns the
// named measurements of that replicate.
type MCFunc func(rep int, r *rng.RNG) (map[string]float64, error)

// RunMC executes reps replicates of fn, fanning out over workers goroutines
// (0 = GOMAXPROCS), and reduces each named measurement to mean ± std.
// Replicate r uses the deterministic child stream Split(r) of the seed, so
// results are independent of scheduling order.
func RunMC(reps, workers int, seed uint64, fn MCFunc) (map[string]CellStat, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("experiment: reps must be positive, got %d", reps)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > reps {
		workers = reps
	}
	root := rng.New(seed)

	type outcome struct {
		vals map[string]float64
		err  error
	}
	results := make([]outcome, reps)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := range next {
				vals, err := fn(rep, root.Split(uint64(rep)))
				results[rep] = outcome{vals: vals, err: err}
			}
		}()
	}
	for rep := 0; rep < reps; rep++ {
		next <- rep
	}
	close(next)
	wg.Wait()

	acc := make(map[string]*stat.Welford)
	for rep, out := range results {
		if out.err != nil {
			return nil, fmt.Errorf("experiment: replicate %d: %w", rep, out.err)
		}
		for name, v := range out.vals {
			w, ok := acc[name]
			if !ok {
				w = &stat.Welford{}
				acc[name] = w
			}
			w.Add(v)
		}
	}
	final := make(map[string]CellStat, len(acc))
	for name, w := range acc {
		cs := CellStat{Mean: w.Mean(), N: w.N()}
		if w.N() > 1 {
			cs.Std = w.Std()
		}
		final[name] = cs
	}
	return final, nil
}
