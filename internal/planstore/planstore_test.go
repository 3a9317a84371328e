package planstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/rng"
)

// designTestPlan builds a small but non-trivial plan from synthetic
// bimodal research data.
func designTestPlan(t *testing.T, seed uint64, nq int) *core.Plan {
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
	plan, err := core.Design(tbl, core.Options{NQ: nq})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestPutGetRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := designTestPlan(t, 1, 30)
	id, _, err := st.Put(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Has(id) {
		t.Fatal("stored plan not visible")
	}
	got, err := st.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	// Memory hit returns the identical object.
	if got != plan {
		t.Error("LRU hit did not return the shared plan")
	}
	// A fresh store over the same directory must reload from disk with
	// identical canonical bytes.
	st2, err := Open(st.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := st2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	a, err := plan.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := reloaded.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("disk round-trip changed the canonical plan bytes")
	}
	stats := st2.Stats()
	if stats.DiskHits != 1 || stats.MemHits != 0 {
		t.Errorf("fresh-store stats = %+v, want one disk hit", stats)
	}
}

func TestContentAddressing(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := designTestPlan(t, 2, 25)
	id1, _, err := st.Put(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Same content re-put (even via a serialization round-trip) dedupes to
	// the same fingerprint.
	raw, err := plan.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	clone, err := core.ReadPlan(bytesReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	id2, _, err := st.Put(clone)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Errorf("identical content hashed to %s and %s", id1, id2)
	}
	if got := st.Stats(); got.Puts != 1 || got.DupPuts != 1 {
		t.Errorf("stats = %+v, want 1 put + 1 dup", got)
	}
	// Different content gets a different fingerprint.
	other := designTestPlan(t, 3, 25)
	id3, _, err := st.Put(other)
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id1 {
		t.Error("distinct plans collided")
	}
	ids, err := st.IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Errorf("IDs() = %v, want 2 entries", ids)
	}
}

func TestGetMissAndMalformedIDs(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("00000000000000000000000000000000"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing plan: err = %v, want ErrNotFound", err)
	}
	for _, id := range []string{"", "short", "../../../../etc/passwd", "ZZ000000000000000000000000000000", "0000000000000000000000000000000g"} {
		if _, err := st.Get(id); err == nil || errors.Is(err, os.ErrNotExist) {
			t.Errorf("malformed id %q not rejected up front", id)
		}
		if st.Has(id) {
			t.Errorf("Has(%q) = true", id)
		}
	}
	if got := st.Stats().Misses; got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
}

// TestCrashSafety simulates the two crash modes: a leftover temp file from
// a write that never committed, and a torn write landed on the live name by
// an agent that bypassed the store. The first must be invisible; the second
// must fail loudly on load, not deserialize garbage.
func TestCrashSafety(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := designTestPlan(t, 4, 20)
	id, _, err := st.Put(plan)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := plan.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}

	// Crash mode 1: an abandoned temp file. Listing must skip it and a
	// reopened store must still serve the committed plan.
	if err := os.WriteFile(filepath.Join(dir, id+".tmp-crashed"), raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := st2.IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != id {
		t.Errorf("IDs with leftover temp = %v, want [%s]", ids, id)
	}
	if _, err := st2.Get(id); err != nil {
		t.Errorf("committed plan unreadable after simulated crash: %v", err)
	}

	// Crash mode 2: a truncated file on a live name. Get must error.
	tornID := "00112233445566778899aabbccddeeff"
	if err := os.WriteFile(filepath.Join(dir, tornID+".json"), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st3.Get(tornID); err == nil {
		t.Fatal("torn plan file deserialized without error")
	}

	// Mode 3: a structurally valid plan restored under the wrong name
	// (rsync mishap). Content addressing must hold on the read path.
	wrongID := "ffeeddccbbaa99887766554433221100"
	if err := os.WriteFile(filepath.Join(dir, wrongID+".json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st3.Get(wrongID); err == nil {
		t.Fatal("misnamed plan served under the wrong fingerprint")
	}
}

func TestLRUEviction(t *testing.T) {
	st, err := Open(t.TempDir(), Options{CacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := uint64(10); seed < 14; seed++ {
		id, _, err := st.Put(designTestPlan(t, seed, 15))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if got := st.Stats().Evictions; got != 2 {
		t.Errorf("evictions = %d, want 2", got)
	}
	// Evicted plans remain durable on disk.
	for _, id := range ids {
		if _, err := st.Get(id); err != nil {
			t.Errorf("plan %s lost after eviction: %v", id, err)
		}
	}
	st2 := st.Stats()
	if st2.DiskHits < 2 {
		t.Errorf("disk hits = %d, want >= 2 (evicted entries reload)", st2.DiskHits)
	}
}

// TestConcurrentAccess hammers one store from many goroutines; run under
// -race this is the store's concurrency certification.
func TestConcurrentAccess(t *testing.T) {
	st, err := Open(t.TempDir(), Options{CacheSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*core.Plan, 4)
	ids := make([]string, 4)
	for i := range plans {
		plans[i] = designTestPlan(t, uint64(20+i), 12)
		id, _, err := st.Put(plans[i])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := ids[(w+i)%len(ids)]
				got, err := st.Get(id)
				if err != nil {
					t.Errorf("concurrent get %s: %v", id, err)
					return
				}
				// A plan decoded from disk is fingerprinted here by several
				// goroutines at once: the first to finish records the memo.
				if fp, err := got.Fingerprint(); err != nil || fp != id {
					t.Errorf("concurrent fingerprint of %s = %s, %v", id, fp, err)
					return
				}
				if i%10 == 0 {
					if _, _, err := st.Put(plans[(w+i)%len(plans)]); err != nil {
						t.Errorf("concurrent put: %v", err)
						return
					}
					st.Stats()
					st.Has(id)
				}
			}
		}(w)
	}
	wg.Wait()
}

func bytesReader(b []byte) *bytes.Reader { return bytes.NewReader(b) }

// TestPutRecommitsPrunedFile covers a Prune (or any removal) between two
// Puts of the same plan: the second Put must find the file gone, commit
// the canonical bytes again and report created, not claim a file that a
// restart or an LRU eviction would then miss.
func TestPutRecommitsPrunedFile(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := designTestPlan(t, 5, 16)
	id, created, err := st.Put(plan)
	if err != nil || !created {
		t.Fatalf("first Put = (%v, %v), want created", created, err)
	}
	path := filepath.Join(st.Dir(), id+".json")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	again, created, err := st.Put(plan)
	if err != nil || !created || again != id {
		t.Fatalf("Put after removal = (%s, %v, %v), want (%s, created)", again, created, err, id)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("recommitted file does not hold the canonical bytes")
	}
	if got := st.Stats(); got.Puts != 2 || got.DupPuts != 0 {
		t.Errorf("stats = %+v, want 2 puts and no duplicate", got)
	}
}

// TestPutSeedsFingerprint pins the one-encoding path of a blind cold
// boot: the plan a Get returns right after Put is the pointer Put kept,
// and its Fingerprint is the memo Put's encoding recorded — no second
// encoding, no allocation.
func TestPutSeedsFingerprint(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := st.Put(designTestPlan(t, 6, 16))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := st.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if fp, err := plan.Fingerprint(); err != nil || fp != id {
			t.Fatalf("Fingerprint = %s, %v, want %s", fp, err, id)
		}
	}); allocs != 0 {
		t.Fatalf("Fingerprint of a stored plan allocates %v times, want 0", allocs)
	}
}

// TestLoadedPlanKeepsFingerprint: a plan Get decodes from disk (a warm
// start, or after an LRU eviction) answers Fingerprint with the id the
// read path verified — its first call encodes nothing and allocates
// nothing — and can be stored again.
func TestLoadedPlanKeepsFingerprint(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := st.Put(designTestPlan(t, 8, 16))
	if err != nil {
		t.Fatal(err)
	}
	const runs = 5
	loaded := make([]*core.Plan, runs+1) // AllocsPerRun calls once more to warm up
	for i := range loaded {
		cold, err := Open(dir, Options{}) // an empty LRU: Get decodes the file
		if err != nil {
			t.Fatal(err)
		}
		if loaded[i], err = cold.Get(id); err != nil {
			t.Fatal(err)
		}
		if got := cold.Stats().DiskHits; got != 1 {
			t.Fatalf("Get on a reopened store made %d disk hits, want 1", got)
		}
	}
	next := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		fp, err := loaded[next].Fingerprint()
		next++
		if err != nil || fp != id {
			t.Fatalf("Fingerprint of a loaded plan = %s, %v, want %s", fp, err, id)
		}
	}); allocs != 0 {
		t.Fatalf("first Fingerprint of a loaded plan allocates %v times, want 0", allocs)
	}
	// Re-storing a loaded plan checks its id against its canonical bytes
	// once; a file the store wrote passes.
	if got, created, err := st.Put(loaded[0]); err != nil || got != id || created {
		t.Fatalf("re-Put of a loaded plan = %s, created %v, %v; want the duplicate %s", got, created, err, id)
	}
}

// TestLoadedNonCanonicalPlan pins a correctly named file that is not
// canonical JSON (here a stored plan re-indented and filed under the hash
// of the new bytes), which only a hand can place: it loads, and its plan
// answers to the id it is stored under — so no encode ran. WriteJSON
// serves the canonical bytes, whose own hash differs, so MarshalCanonical
// and with it Put refuse the plan: even once the file is gone, its
// canonical bytes are never committed under the id, where the read path
// would quarantine them as misnamed.
func TestLoadedNonCanonicalPlan(t *testing.T) {
	canonical, err := designTestPlan(t, 9, 16).MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, canonical, "", "  "); err != nil {
		t.Fatal(err)
	}
	id := core.FingerprintBytes(indented.Bytes())
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, id+".json"), indented.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := st.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if fp, err := plan.Fingerprint(); err != nil || fp != id {
		t.Fatalf("Fingerprint = %s, %v, want the stored id %s", fp, err, id)
	}
	var served bytes.Buffer
	if err := plan.WriteJSON(&served); err != nil || !bytes.Equal(served.Bytes(), canonical) {
		t.Fatalf("WriteJSON of the loaded plan: %d bytes, %v; want the %d canonical bytes", served.Len(), err, len(canonical))
	}
	want := "core: plan stored as " + id + " is not canonical JSON (its canonical bytes hash to " + core.FingerprintBytes(canonical) + ")"
	for _, removed := range []bool{false, true} {
		if removed {
			if err := os.Remove(filepath.Join(dir, id+".json")); err != nil {
				t.Fatal(err)
			}
		}
		if got, _, err := st.Put(plan); err == nil || err.Error() != want {
			t.Fatalf("re-Put (file removed: %v) = %s, %v; want error %q", removed, got, err, want)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("refused Puts left %d entries (%v)", len(entries), err)
	}
}

// TestPutRejectsNonFinitePlan: a plan holding NaN or ±Inf fails Put with
// encoding/json's error text and leaves the directory empty.
func TestPutRejectsNonFinitePlan(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := designTestPlan(t, 7, 16)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := &core.Plan{Dim: good.Dim, Names: good.Names, Cells: good.Cells, Opts: good.Opts, GroupSizes: good.GroupSizes}
		bad.Opts.T = v
		want := "json: unsupported value: " + strconv.FormatFloat(v, 'g', -1, 64)
		if id, _, err := st.Put(bad); err == nil || err.Error() != want {
			t.Fatalf("Put with t = %v = (%q, %v), want error %q", v, id, err, want)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed Puts left %d entries behind", len(entries))
	}
}
