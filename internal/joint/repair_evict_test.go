package joint

import (
	"testing"

	"otfair/internal/dataset"
	"otfair/internal/rng"
)

// TestAliasEvictionOrderDeterministic pins the victim order: coldest
// sampler first, ties broken by (u, s, row) — never map iteration order.
func TestAliasEvictionOrderDeterministic(t *testing.T) {
	build := func() *Repairer {
		rp := &Repairer{alias: make(map[aliasKey]*rowSampler), aliasBudget: 400}
		add := func(u, s, row, atoms int, hits uint64) {
			rp.alias[aliasKey{u: u, s: s, row: row}] = &rowSampler{slots: make([]rng.AliasSlot, atoms), hits: hits}
			rp.aliasAtoms += atoms
		}
		add(1, 1, 9, 40, 5) // hot: must survive
		add(0, 1, 2, 40, 0) // cold, key order 2nd
		add(0, 0, 7, 40, 0) // cold, key order 1st
		add(1, 0, 1, 40, 2) // warm, evicted after the cold pair
		add(0, 1, 5, 40, 9) // hottest: must survive
		return rp
	}
	want := []aliasKey{{0, 0, 7}, {0, 1, 2}, {1, 0, 1}} // shed quota 100 atoms -> 3 victims
	for run := 0; run < 20; run++ {
		rp := build()
		var got []aliasKey
		rp.onEvict = func(k aliasKey) { got = append(got, k) }
		rp.evictAliases()
		if len(got) != len(want) {
			t.Fatalf("run %d: evicted %d samplers, want %d (%v)", run, len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: eviction %d = %v, want %v", run, i, got[i], want[i])
			}
		}
		if rp.aliasAtoms != 2*40 {
			t.Fatalf("run %d: %d atoms left, want 80", run, rp.aliasAtoms)
		}
	}
}

// TestAliasEvictionPreservesRepairOutput is the differential test: a
// budget tiny enough to evict constantly must produce rows byte-identical
// to an effectively unbounded cache, and the eviction sequence itself must
// be stable across identical runs.
func TestAliasEvictionPreservesRepairOutput(t *testing.T) {
	research, archive := paperTables(t, 21, 400, 300)
	plan, err := Design(research, Options{NQ: 12})
	if err != nil {
		t.Fatal(err)
	}
	run := func(budget int) (*dataset.Table, []aliasKey) {
		rp, err := NewRepairer(plan, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		rp.aliasBudget = budget
		var evicted []aliasKey
		rp.onEvict = func(k aliasKey) { evicted = append(evicted, k) }
		out, err := rp.RepairTable(archive)
		if err != nil {
			t.Fatal(err)
		}
		return out, evicted
	}
	tiny1, ev1 := run(256)
	tiny2, ev2 := run(256)
	big, evBig := run(aliasAtomBudget)

	if len(ev1) == 0 {
		t.Fatal("tiny budget evicted nothing; the test exercises no eviction")
	}
	if len(evBig) != 0 {
		t.Fatalf("production budget evicted %d samplers on a toy plan", len(evBig))
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("eviction sequence length differs across identical runs: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("eviction %d differs across identical runs: %v vs %v", i, ev1[i], ev2[i])
		}
	}
	for i := 0; i < big.Len(); i++ {
		a, b, c := tiny1.At(i), tiny2.At(i), big.At(i)
		if a.S != c.S || a.U != c.U || b.S != c.S || b.U != c.U {
			t.Fatalf("record %d: labels differ across budgets", i)
		}
		for k := range c.X {
			if a.X[k] != c.X[k] || b.X[k] != c.X[k] {
				t.Fatalf("record %d coord %d: repaired value differs across cache budgets (%v, %v, %v)", i, k, a.X[k], b.X[k], c.X[k])
			}
		}
	}
}
