package planstore

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestDiscardTempSurfacesRemovalFailure pins the error-chain contract of
// the write path: when cleaning up an abandoned temp spool itself fails
// (full or read-only disk), the returned error must carry BOTH the write
// failure and the removal failure, so the operator can diagnose the disk
// instead of chasing only the first symptom.
func TestDiscardTempSurfacesRemovalFailure(t *testing.T) {
	writeErr := fmt.Errorf("planstore: writing abc: %w", errors.New("disk full"))
	rmErr := errors.New("read-only file system")
	old := removeFile
	removeFile = func(string) error { return rmErr }
	defer func() { removeFile = old }()

	got := discardTemp(writeErr, "/store/abc.tmp-1")
	if !errors.Is(got, writeErr) {
		t.Errorf("write error lost from chain: %v", got)
	}
	if !errors.Is(got, rmErr) {
		t.Errorf("removal error lost from chain: %v", got)
	}
	if !strings.Contains(got.Error(), "removing temp abc.tmp-1") {
		t.Errorf("removal failure not named: %v", got)
	}

	// A successful removal (or an already-gone file) adds nothing.
	removeFile = os.Remove
	if got := discardTemp(writeErr, "/nonexistent/abc.tmp-1"); !errors.Is(got, writeErr) || errors.Is(got, rmErr) {
		t.Errorf("clean discard mangled the error: %v", got)
	}
}

// TestDiscardTempIgnoresMissingFile: a temp file that vanished (e.g. a
// concurrent Prune past its TTL) is not an additional failure.
func TestDiscardTempIgnoresMissingFile(t *testing.T) {
	a, err := OpenArtefacts(t.TempDir(), "plan", rawEncoder, rawDecoder, Options{})
	if err != nil {
		t.Fatal(err)
	}
	writeErr := errors.New("boom")
	got := discardTemp(writeErr, a.dir+"/gone.tmp-1")
	if got != writeErr {
		t.Errorf("missing temp file polluted the chain: %v", got)
	}
}

// Has reports whether the fingerprint exists in memory or on disk, without
// decoding.
func (a *Artefacts[T]) Has(id string) bool {
	if !validID(id) {
		return false
	}
	a.mu.Lock()
	_, hot := a.cache[id]
	a.mu.Unlock()
	if hot {
		return true
	}
	_, err := os.Stat(a.path(id))
	return err == nil
}
