package planstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

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

// TestPruneSurfacesTempRemovalFailure: a stale temp spool that cannot be
// removed fails the prune loudly instead of being skipped in silence.
func TestPruneSurfacesTempRemovalFailure(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spool := filepath.Join(dir, "0123456789abcdef0123456789abcdef.tmp-crashed")
	if err := os.WriteFile(spool, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	backdate(t, spool, 48*time.Hour)
	rmErr := errors.New("read-only file system")
	old := removeFile
	removeFile = func(string) error { return rmErr }
	defer func() { removeFile = old }()

	if _, err := st.Prune(24 * time.Hour); !errors.Is(err, rmErr) {
		t.Fatalf("Prune = %v, want the temp removal failure", err)
	}
	removeFile = old
	if _, err := st.Prune(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(spool); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale plan spool survived: %v", err)
	}
}
