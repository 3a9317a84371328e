package core

import (
	"sync"
	"sync/atomic"

	"otfair/internal/ot"
)

// cellCache memoizes fully designed cells keyed by the content hash of
// everything that determines them: the two s-conditional research samples
// and the (defaulted) design options. Algorithm 1 is pure — identical
// inputs yield an identical support, marginals, target and plans — so
// identical (u, feature) cells across features, groups, Monte-Carlo
// replicates or repeated Design calls can share one designed Cell. Discrete
// and categorical features (the Adult pipeline's indicator columns) hit
// constantly; continuous features hash in microseconds and miss, which
// costs a negligible fraction of a KDE + OT solve.
//
// Cells are immutable once designed (the repairers, serializers and pooled
// re-designs all treat them read-only), so sharing pointers across plans is
// safe, including concurrently.
var cellCache = struct {
	sync.RWMutex
	m      map[[2]uint64]*Cell
	hits   atomic.Uint64
	misses atomic.Uint64
}{m: make(map[[2]uint64]*Cell)}

// cellCacheCap bounds the cache. A Sinkhorn-designed n_Q=250 cell can hold
// a dense plan of ~60k atoms, so the cap keeps worst-case retention around
// a few hundred megabytes; typical monotone-designed cells are ~100× smaller.
// A cached cell that has been encoded twice also keeps its canonical JSON
// fragment (planEncoder.cell), about 45 bytes per atom on top of the 24 the
// atom itself takes.
const cellCacheCap = 512

// cellKeyFor fingerprints the design inputs. Options are hashed after
// defaulting so that equivalent spellings (zero vs explicit default) share
// an entry.
func cellKeyFor(x0, x1 []float64, o Options) [2]uint64 {
	h := ot.HashFloats(x0, x1)
	tail := ot.HashFloats([]float64{
		float64(o.NQ), o.T, o.Amount,
		float64(o.Kernel), float64(o.Bandwidth), float64(o.Solver),
		float64(o.Target), float64(o.Barycenter), o.SinkhornEpsilon,
	})
	return [2]uint64{h[0] ^ tail[0], h[1] ^ tail[1]}
}

func cellCacheGet(key [2]uint64) (*Cell, bool) {
	cellCache.RLock()
	c := cellCache.m[key]
	cellCache.RUnlock()
	if c != nil {
		cellCache.hits.Add(1)
	} else {
		cellCache.misses.Add(1)
	}
	return c, c != nil
}

func cellCachePut(key [2]uint64, c *Cell) {
	cellCache.Lock()
	ot.TrimCapped(cellCache.m, cellCacheCap)
	cellCache.m[key] = c
	cellCache.Unlock()
}

// DesignCacheStats reports cumulative hit/miss counts of the design-cell
// cache, for diagnostics and capacity planning.
func DesignCacheStats() (hits, misses uint64) {
	return cellCache.hits.Load(), cellCache.misses.Load()
}

// ResetDesignCache empties the design-cell cache and zeroes its counters.
// Long-running deployments that retire experiment configurations can call
// it to release retained plans.
func ResetDesignCache() {
	cellCache.Lock()
	cellCache.m = make(map[[2]uint64]*Cell)
	cellCache.Unlock()
	cellCache.hits.Store(0)
	cellCache.misses.Store(0)
}
