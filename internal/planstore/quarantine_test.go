package planstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"otfair/internal/faultinject"
)

// rawEncoder and rawDecoder store bytes as-is; corruption tests rely on
// the fingerprint check, not the decoder.
func rawEncoder(dst, v []byte) ([]byte, string, error) { return append(dst, v...), fingerprint(v), nil }
func rawDecoder(raw []byte, _ string) ([]byte, error) {
	return append([]byte(nil), raw...), nil
}

// openRaw opens a fresh Artefacts over dir with an empty cache, so Gets
// are forced to the disk path.
func openRaw(t *testing.T, dir string, opts Options) *Artefacts[[]byte] {
	t.Helper()
	a, err := OpenArtefacts(dir, "plan", rawEncoder, rawDecoder, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestGetQuarantinesCorruptArtefact pins the integrity-that-acts
// contract: a file whose bytes no longer match its fingerprint is
// retried once, then moved to quarantine/ with a reason file, surfaced
// as a typed *CorruptArtefactError, and reads as a miss afterwards.
func TestGetQuarantinesCorruptArtefact(t *testing.T) {
	dir := t.TempDir()
	a := openRaw(t, dir, Options{})
	id, _, err := a.Put([]byte("payload-one"))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the live file behind the store's back.
	if err := os.WriteFile(filepath.Join(dir, id+".json"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Fresh store: cold cache, so Get must take the disk path.
	b := openRaw(t, dir, Options{})
	_, err = b.Get(id)
	var cerr *CorruptArtefactError
	if !errors.As(err, &cerr) {
		t.Fatalf("Get on corrupt file returned %v, want *CorruptArtefactError", err)
	}
	if cerr.Kind != "plan" || cerr.ID != id || !cerr.Quarantined {
		t.Errorf("error coordinates wrong: %+v", cerr)
	}

	qjson := filepath.Join(b.QuarantineDir(), id+".json")
	got, rerr := os.ReadFile(qjson)
	if rerr != nil {
		t.Fatalf("quarantined bytes missing: %v", rerr)
	}
	if !bytes.Equal(got, []byte("garbage")) {
		t.Errorf("quarantine holds %q, want the corrupt bytes", got)
	}
	reason, rerr := os.ReadFile(filepath.Join(b.QuarantineDir(), id+".reason"))
	if rerr != nil {
		t.Fatalf("reason file missing: %v", rerr)
	}
	if !bytes.Contains(reason, []byte(id)) || !bytes.Contains(reason, []byte("fingerprint")) {
		t.Errorf("reason file does not explain the condemnation: %q", reason)
	}

	// The live name is gone: subsequent reads are a miss, not a repeat
	// server error.
	if _, err := b.Get(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("post-quarantine Get returned %v, want ErrNotFound", err)
	}
	st := b.Stats()
	if st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", st.Quarantined)
	}
	if st.ReadRetries != 1 {
		t.Errorf("ReadRetries = %d, want 1 (one retry before condemning)", st.ReadRetries)
	}
}

// TestGetQuarantinesDecodeFailure: a file whose bytes match the
// fingerprint but fail the decoder is condemned the same way.
func TestGetQuarantinesDecodeFailure(t *testing.T) {
	dir := t.TempDir()
	decodeErr := errors.New("structurally invalid")
	open := func() *Artefacts[[]byte] {
		a, err := OpenArtefacts(dir, "plan", rawEncoder, func(raw []byte, _ string) ([]byte, error) {
			if bytes.Contains(raw, []byte("poison")) {
				return nil, decodeErr
			}
			return raw, nil
		}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := open()
	// Put does not decode what it writes, so the poison lands on
	// disk with a valid fingerprint.
	id, _, err := a.Put([]byte("poison-payload"))
	if err != nil {
		t.Fatal(err)
	}
	b := open()
	_, err = b.Get(id)
	var cerr *CorruptArtefactError
	if !errors.As(err, &cerr) {
		t.Fatalf("Get returned %v, want *CorruptArtefactError", err)
	}
	if !errors.Is(err, decodeErr) {
		t.Errorf("decode cause lost from chain: %v", err)
	}
	if _, err := b.Get(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("post-quarantine Get returned %v, want ErrNotFound", err)
	}
}

// TestGetRetryAbsorbsTransientReadFault: a read fault that fires once is
// retried and the caller never sees it — the retry exists precisely so
// one glitch does not condemn a healthy artefact.
func TestGetRetryAbsorbsTransientReadFault(t *testing.T) {
	dir := t.TempDir()
	a := openRaw(t, dir, Options{})
	id, _, err := a.Put([]byte("healthy"))
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(7).Set(faultinject.StoreRead, faultinject.Rule{Every: 1, Limit: 1})
	b := openRaw(t, dir, Options{Fault: inj})
	v, err := b.Get(id)
	if err != nil {
		t.Fatalf("Get with transient fault: %v", err)
	}
	if !bytes.Equal(v, []byte("healthy")) {
		t.Errorf("retry served wrong bytes: %q", v)
	}
	st := b.Stats()
	if st.ReadRetries != 1 || st.Quarantined != 0 {
		t.Errorf("ReadRetries = %d, Quarantined = %d; want 1, 0", st.ReadRetries, st.Quarantined)
	}
	// The artefact stayed live.
	if _, err := os.Stat(filepath.Join(dir, id+".json")); err != nil {
		t.Errorf("healthy artefact was moved: %v", err)
	}
}

// TestGetMissIsNotRetried: ErrNotFound is a clean answer, not a fault —
// no retry, no quarantine, one Misses increment.
func TestGetMissIsNotRetried(t *testing.T) {
	a := openRaw(t, t.TempDir(), Options{})
	if _, err := a.Get("0123456789abcdef0123456789abcdef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on absent id: %v", err)
	}
	st := a.Stats()
	if st.Misses != 1 || st.ReadRetries != 0 {
		t.Errorf("Misses = %d, ReadRetries = %d; want 1, 0", st.Misses, st.ReadRetries)
	}
}

// TestTornWriteFaultDrivesQuarantine: the store.torn-write point commits
// truncated bytes under the live name (bypassing the atomic-rename
// protection exactly as a kernel crash would), and the next cold read
// condemns and quarantines them — the end-to-end path the soak drives.
func TestTornWriteFaultDrivesQuarantine(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(11).Set(faultinject.StoreTornWrite, faultinject.Rule{Every: 1, Limit: 1})
	a := openRaw(t, dir, Options{Fault: inj})
	payload := []byte("this payload is long enough to be torn in half")
	id, created, err := a.Put(payload)
	if err != nil || !created {
		t.Fatalf("Put = (%v, %v)", created, err)
	}
	// The torn artefact must not be served from memory: the injector
	// skipped the LRU insert, so this Get decodes the damage from disk.
	_, err = a.Get(id)
	var cerr *CorruptArtefactError
	if !errors.As(err, &cerr) {
		t.Fatalf("Get after torn write returned %v, want *CorruptArtefactError", err)
	}
	if _, serr := os.Stat(filepath.Join(a.QuarantineDir(), id+".json")); serr != nil {
		t.Errorf("torn bytes not quarantined: %v", serr)
	}
	// Re-storing the true bytes resurrects the fingerprint (the rule that
	// makes quarantine safe under content addressing).
	if _, _, err := a.Put(payload); err != nil {
		t.Fatal(err)
	}
	if v, err := a.Get(id); err != nil || !bytes.Equal(v, payload) {
		t.Errorf("re-Put did not restore the artefact: %v %v", v, err)
	}
}

// TestPruneSweepsQuarantine: quarantined evidence ages out under the
// same TTL as live artefacts — the sweep the old Prune (which skipped
// all directories) never did.
func TestPruneSweepsQuarantine(t *testing.T) {
	dir := t.TempDir()
	a := openRaw(t, dir, Options{})
	id, _, err := a.Put([]byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, id+".json"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	b := openRaw(t, dir, Options{})
	if _, err := b.Get(id); err == nil {
		t.Fatal("corrupt Get unexpectedly succeeded")
	}

	qjson := filepath.Join(b.QuarantineDir(), id+".json")
	qreason := filepath.Join(b.QuarantineDir(), id+".reason")

	// Fresh evidence survives a prune.
	if n, err := b.Prune(time.Hour); err != nil || n != 0 {
		t.Fatalf("Prune = (%d, %v), want (0, nil)", n, err)
	}
	if _, err := os.Stat(qjson); err != nil {
		t.Fatalf("fresh quarantine evidence swept: %v", err)
	}

	// Backdate it past the TTL: the sweep collects both files and counts
	// the artefact.
	old := time.Now().Add(-2 * time.Hour)
	for _, p := range []string{qjson, qreason} {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	n, err := b.Prune(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("Prune removed %d, want 1 (the quarantined artefact)", n)
	}
	for _, p := range []string{qjson, qreason} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived the sweep: %v", filepath.Base(p), err)
		}
	}
}

// TestWriteFaultSurfacesAsError: the store.write point fails Put
// loudly and leaves no live file behind.
func TestWriteFaultSurfacesAsError(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(3).Set(faultinject.StoreWrite, faultinject.Rule{Every: 1, Limit: 1})
	a := openRaw(t, dir, Options{Fault: inj})
	payload := []byte("never lands")
	_, _, err := a.Put(payload)
	var ferr *faultinject.Error
	if !errors.As(err, &ferr) || ferr.Point != faultinject.StoreWrite {
		t.Fatalf("Put = %v, want injected store.write fault", err)
	}
	// Second attempt (fault exhausted) succeeds.
	if _, created, err := a.Put(payload); err != nil || !created {
		t.Fatalf("retry Put = (%v, %v), want created", created, err)
	}
}
