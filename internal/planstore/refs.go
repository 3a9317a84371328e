// Refs: the one mutable namespace in an otherwise content-addressed store.
// Every artefact is immutable — a fingerprint always names the same bytes —
// so "replace the plan" cannot mean rewriting a file; it means repointing a
// name. A ref maps a lineage fingerprint (the artefact a deployment was
// originally bound to) to the currently active fingerprint for that
// lineage. The drift-recalibration loop swaps a refitted plan in by CAS-ing
// the lineage's ref from the incumbent to the candidate, and rolls back by
// simply not doing so: both "states" are plain, inspectable files, and the
// artefacts themselves are never touched, which is what makes swap and
// rollback trivially verifiable.
//
// Refs never sit on the serve path: repair requests pin explicit
// fingerprints and are served byte-identically whether or not any ref
// moves. The namespace is bookkeeping for the loop, the /v1/refs endpoint,
// and any client that wants "the current plan for this lineage".
package planstore

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// RefsDirName is the subdirectory (of a store root) holding refs.
const RefsDirName = "refs"

// ErrRefConflict reports a CompareAndSwap whose expected incumbent no
// longer matches — another loop run moved the ref first. The swap did not
// happen.
var ErrRefConflict = errors.New("planstore: ref changed concurrently")

// Refs is a directory of lineage → active fingerprint mappings. Both sides
// of every mapping are validated fingerprints, so a ref can never point
// outside the store's ID space. All methods are safe for concurrent use
// within one process; cross-process writers are serialized by the atomic
// rename, with last-writer-wins semantics.
type Refs struct {
	dir    string
	logger *slog.Logger
	mu     sync.Mutex
}

// OpenRefs creates (if needed) and opens the refs namespace under a store
// root. logger may be nil.
func OpenRefs(root string, logger *slog.Logger) (*Refs, error) {
	if root == "" {
		return nil, errors.New("planstore: empty refs root")
	}
	dir := filepath.Join(root, RefsDirName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("planstore: creating %s: %w", dir, err)
	}
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return &Refs{dir: dir, logger: logger.With(slog.String("component", "planstore"))}, nil
}

func (r *Refs) path(lineage string) string {
	return filepath.Join(r.dir, lineage+".ref")
}

// Get returns the active fingerprint for a lineage, or ErrNotFound when no
// ref has ever been set for it.
func (r *Refs) Get(lineage string) (string, error) {
	if !validID(lineage) {
		return "", fmt.Errorf("%w: %q", ErrBadID, lineage)
	}
	raw, err := os.ReadFile(r.path(lineage))
	if errors.Is(err, os.ErrNotExist) {
		return "", fmt.Errorf("%w: ref %s", ErrNotFound, lineage)
	}
	if err != nil {
		return "", fmt.Errorf("planstore: reading ref %s: %w", lineage, err)
	}
	id := strings.TrimSpace(string(raw))
	if !validID(id) {
		return "", fmt.Errorf("planstore: ref %s holds malformed target %q", lineage, id)
	}
	return id, nil
}

// Resolve returns the active fingerprint for a lineage, or the lineage
// itself when no ref exists — the identity mapping every artefact starts
// with. Malformed ref contents also resolve to the lineage: a damaged ref
// must degrade to the original binding, never to nothing.
func (r *Refs) Resolve(lineage string) string {
	id, err := r.Get(lineage)
	if err != nil {
		return lineage
	}
	return id
}

// CompareAndSwap repoints a lineage from the expected incumbent to the new
// active fingerprint. expected is what Resolve currently answers — the
// lineage itself when no ref exists yet. On mismatch it returns
// ErrRefConflict and the ref is untouched. The write goes through
// commitFile (temp file, fsync, rename), so a crash can never leave a torn
// ref.
func (r *Refs) CompareAndSwap(lineage, expected, active string) error {
	if !validID(lineage) {
		return fmt.Errorf("%w: %q", ErrBadID, lineage)
	}
	if !validID(active) {
		return fmt.Errorf("%w: %q", ErrBadID, active)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur := r.Resolve(lineage); cur != expected {
		return fmt.Errorf("%w: lineage %s is at %s, expected %s", ErrRefConflict, lineage, cur, expected)
	}
	if err := commitFile(r.dir, lineage, "ref ", r.path(lineage), []byte(active+"\n")); err != nil {
		return err
	}
	r.logger.Info("ref swapped", slog.String("lineage", lineage),
		slog.String("from", expected), slog.String("to", active))
	return nil
}

// Delete removes a lineage's ref, restoring the identity mapping. Deleting
// an absent ref is a no-op.
func (r *Refs) Delete(lineage string) error {
	if !validID(lineage) {
		return fmt.Errorf("%w: %q", ErrBadID, lineage)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.Remove(r.path(lineage)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("planstore: deleting ref %s: %w", lineage, err)
	}
	return nil
}

// List returns every lineage → active mapping, for the /v1/refs endpoint.
func (r *Refs) List() (map[string]string, error) {
	live, _, err := scanDir(r.dir, ".ref")
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for _, f := range live {
		id, err := r.Get(f.id)
		if err != nil {
			continue
		}
		out[f.id] = id
	}
	return out, nil
}
