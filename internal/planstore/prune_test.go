package planstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/rng"
)

// backdate pushes a file's mtime into the past so TTL retention sees it as
// stale without the test sleeping.
func backdate(t *testing.T, path string, age time.Duration) {
	t.Helper()
	old := time.Now().Add(-age)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
}

func TestPruneTTLRetention(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oldPlan := designTestPlan(t, 50, 15)
	oldID, _, err := st.Put(oldPlan)
	if err != nil {
		t.Fatal(err)
	}
	freshID, _, err := st.Put(designTestPlan(t, 51, 15))
	if err != nil {
		t.Fatal(err)
	}
	backdate(t, filepath.Join(dir, oldID+".json"), 48*time.Hour)

	removed, err := st.Prune(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Errorf("removed = %d, want 1", removed)
	}
	if st.Has(oldID) {
		t.Error("pruned plan still visible (stale LRU entry must be dropped too)")
	}
	if _, err := st.Get(oldID); err == nil {
		t.Error("pruned plan still served")
	}
	if _, err := st.Get(freshID); err != nil {
		t.Errorf("fresh plan lost by prune: %v", err)
	}

	// Content addressing makes retention safe: re-putting the pruned plan
	// restores it under the identical fingerprint.
	reID, created, err := st.Put(oldPlan)
	if err != nil {
		t.Fatal(err)
	}
	if reID != oldID || !created {
		t.Errorf("re-put after prune: id=%s created=%v, want %s/true", reID, created, oldID)
	}

	// A duplicate Put refreshes the TTL: an aged entry that is re-stored
	// counts as in use and survives the next prune.
	backdate(t, filepath.Join(dir, oldID+".json"), 48*time.Hour)
	if _, created, err := st.Put(oldPlan); err != nil || created {
		t.Fatalf("dup put: created=%v err=%v", created, err)
	}
	if removed, err := st.Prune(24 * time.Hour); err != nil || removed != 0 {
		t.Errorf("prune after refreshing dup put: removed=%d err=%v, want 0/nil", removed, err)
	}
	if !st.Has(oldID) {
		t.Error("re-stored plan pruned despite TTL refresh")
	}
}

// TestDesignIndexPrune covers link retention: aged links go, fresh links
// pointing at live plans stay, and a fresh link whose plan was pruned
// underneath (dangling) is collected too.
func TestDesignIndexPrune(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewDesignIndex(st)
	if err != nil {
		t.Fatal(err)
	}
	research := designTestResearch(t, 80)
	if _, err := ix.Design(research, core.Options{NQ: 15}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Design(research, core.Options{NQ: 18}); err != nil {
		t.Fatal(err)
	}
	links, err := os.ReadDir(filepath.Join(dir, designNamespace))
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 {
		t.Fatalf("links = %d, want 2", len(links))
	}
	// Age the first link past the cutoff.
	backdate(t, filepath.Join(dir, designNamespace, links[0].Name()), 48*time.Hour)
	if removed, err := ix.Prune(24 * time.Hour); err != nil || removed != 1 {
		t.Fatalf("prune aged link: removed=%d err=%v, want 1/nil", removed, err)
	}
	// Dangle the surviving link by deleting every plan; a fresh prune
	// collects it regardless of age.
	for _, id := range mustIDs(t, st) {
		if err := st.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if removed, err := ix.Prune(24 * time.Hour); err != nil || removed != 1 {
		t.Fatalf("prune dangling link: removed=%d err=%v, want 1/nil", removed, err)
	}
	left, err := os.ReadDir(filepath.Join(dir, designNamespace))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("links left after pruning: %d", len(left))
	}
}

func mustIDs(t *testing.T, st *Store) []string {
	t.Helper()
	ids, err := st.IDs()
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestPruneCrashSafety covers the crash interactions of retention: stale
// temp spools from crashed writes are collected, fresh temp files from
// in-flight writes are left alone, and a prune interrupted between unlinks
// (simulated by pruning twice with different cutoffs) leaves a store every
// survivor still loads cleanly from.
func TestPruneCrashSafety(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := uint64(60); seed < 63; seed++ {
		id, _, err := st.Put(designTestPlan(t, seed, 12))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Age the first two entries differently.
	backdate(t, filepath.Join(dir, ids[0]+".json"), 72*time.Hour)
	backdate(t, filepath.Join(dir, ids[1]+".json"), 36*time.Hour)
	// A crashed write's abandoned spool, old enough to collect, and an
	// in-flight one that must survive.
	stale := filepath.Join(dir, ids[0]+".tmp-crashed")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	backdate(t, stale, 72*time.Hour)
	inflight := filepath.Join(dir, ids[2]+".tmp-live")
	if err := os.WriteFile(inflight, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	// First prune pass removes only the oldest plan — as if the process
	// died before a second pass with a tighter policy ran.
	if removed, err := st.Prune(48 * time.Hour); err != nil || removed != 1 {
		t.Fatalf("first prune: removed=%d err=%v, want 1/nil", removed, err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp spool survived prune")
	}
	if _, err := os.Stat(inflight); err != nil {
		t.Error("in-flight temp file collected by prune")
	}

	// A store reopened over the post-crash directory serves every survivor.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	left, err := st2.IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 2 {
		t.Fatalf("IDs after interrupted retention = %v, want 2 survivors", left)
	}
	for _, id := range left {
		if _, err := st2.Get(id); err != nil {
			t.Errorf("survivor %s unreadable: %v", id, err)
		}
	}
	// The tighter second pass finishes the job.
	if removed, err := st2.Prune(24 * time.Hour); err != nil || removed != 1 {
		t.Fatalf("second prune: removed=%d err=%v, want 1/nil", removed, err)
	}
	if !st2.Has(ids[2]) {
		t.Error("youngest plan lost")
	}
	if _, err := st.Prune(0); err == nil {
		t.Error("non-positive prune age accepted")
	}
}

func TestDesignIndexWarmStart(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewDesignIndex(st)
	if err != nil {
		t.Fatal(err)
	}
	research := designTestResearch(t, 70)
	opts := core.Options{NQ: 20}

	plan, err := ix.Design(research, opts)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := ix.Stats(); h != 0 || m != 1 {
		t.Errorf("first design: hits=%d misses=%d, want 0/1", h, m)
	}
	// Same inputs warm-start, and a fresh index over the same directory
	// (another process) warm-starts from disk with identical canonical
	// bytes.
	again, err := ix.Design(research, opts)
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := ix.Stats(); h != 1 {
		t.Error("repeat design did not hit the disk tier")
	}
	if again != plan {
		t.Error("in-process warm start did not return the cached plan object")
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := NewDesignIndex(st2)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := ix2.Design(research, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := plan.MarshalCanonical()
	b, _ := reloaded.MarshalCanonical()
	if string(a) != string(b) {
		t.Error("cross-process warm start changed the canonical plan bytes")
	}
	if h, m := ix2.Stats(); h != 1 || m != 0 {
		t.Errorf("cross-process stats: hits=%d misses=%d, want 1/0", h, m)
	}

	// Different options are a different key.
	if _, err := ix.Design(research, core.Options{NQ: 25}); err != nil {
		t.Fatal(err)
	}
	if _, m := ix.Stats(); m != 2 {
		t.Error("changed options did not re-design")
	}

	// A dangling link (plan pruned underneath) self-heals.
	id, err := plan.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(id); err != nil {
		t.Fatal(err)
	}
	healed, err := ix.Design(research, opts)
	if err != nil {
		t.Fatal(err)
	}
	hid, err := healed.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if hid != id || !st.Has(id) {
		t.Error("dangling design link did not re-create the plan")
	}
}

// designTestResearch builds a synthetic bimodal research table for tests
// that exercise the design inputs rather than a finished plan.
func designTestResearch(t *testing.T, seed uint64) *dataset.Table {
	t.Helper()
	r := rng.New(seed)
	tbl := dataset.MustTable(2, []string{"a", "b"})
	for u := 0; u < 2; u++ {
		for s := 0; s < 2; s++ {
			for i := 0; i < 60; i++ {
				if err := tbl.Append(dataset.Record{
					X: []float64{
						float64(u) + 2*float64(s) + r.Norm(),
						-float64(u) + 0.5*float64(s) + 0.7*r.Norm(),
					},
					S: s, U: u,
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return tbl
}

// TestDesignIndexPruneSurfacesTempRemovalFailure: a stale link spool that
// cannot be removed fails the prune loudly, as it does for artefacts,
// instead of being skipped in silence.
func TestDesignIndexPruneSurfacesTempRemovalFailure(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewDesignIndex(st)
	if err != nil {
		t.Fatal(err)
	}
	spool := filepath.Join(ix.dir, "0123456789abcdef0123456789abcdef.tmp-crashed")
	if err := os.WriteFile(spool, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	backdate(t, spool, 48*time.Hour)
	rmErr := errors.New("read-only file system")
	old := removeFile
	removeFile = func(string) error { return rmErr }
	defer func() { removeFile = old }()

	if _, err := ix.Prune(24 * time.Hour); !errors.Is(err, rmErr) {
		t.Fatalf("Prune = %v, want the temp removal failure", err)
	}
	removeFile = old
	if _, err := ix.Prune(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(spool); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale link spool survived: %v", err)
	}
}
