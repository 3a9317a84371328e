// The store machinery below is artefact-generic: the serving layer persists
// more than one kind of deployment artefact (repair plans, blind
// calibrations, staged research sets), all with the same lifecycle —
// canonical serialized bytes, a 128-bit content fingerprint as the key,
// atomic temp-file-and-rename writes, loud validation on load, an
// in-memory LRU of decoded values on top of unbounded-by-default disk
// retention. Artefacts[T] implements that lifecycle once for any value
// type T, given the namespace's encode and decode functions; Store,
// CalibrationStore and ResearchStore are type aliases of its three
// instantiations. commitFile is the one atomic write every file of the
// store (artefacts, refs) goes through, and scanDir the one
// directory listing every namespace walk starts from.
package planstore

import (
	"container/list"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"otfair/internal/faultinject"
	"otfair/internal/obs"
)

// QuarantineDirName is the subdirectory (per namespace) that corrupt
// artefacts are moved to instead of being served or silently deleted:
// quarantine preserves the evidence for the operator while guaranteeing
// the bad bytes can never be decoded into a repair again. Each
// quarantined artefact leaves `<id>.json` (the corrupt bytes) and
// `<id>.reason` (why) behind; Prune sweeps both by age.
const QuarantineDirName = "quarantine"

// CorruptArtefactError reports an artefact whose disk bytes failed
// content-fingerprint or decode validation twice in a row and were moved
// to quarantine/. It is a terminal answer for this fingerprint — the
// entry is gone from the store until someone re-Puts the true bytes —
// and HTTP layers map it to a server error, not a miss.
type CorruptArtefactError struct {
	// Kind is the artefact noun ("plan", "calibration"); ID the
	// fingerprint the corrupt file was stored under.
	Kind, ID string
	// Quarantined reports whether the move to quarantine/ succeeded; when
	// false the corrupt file is still in place (e.g. a read-only disk)
	// and Err carries the move failure too.
	Quarantined bool
	// Err is the validation failure that condemned the artefact.
	Err error
}

func (e *CorruptArtefactError) Error() string {
	if !e.Quarantined {
		return fmt.Sprintf("planstore: %s %s is corrupt (quarantine failed): %v", e.Kind, e.ID, e.Err)
	}
	return fmt.Sprintf("planstore: %s %s is corrupt and was quarantined: %v", e.Kind, e.ID, e.Err)
}

func (e *CorruptArtefactError) Unwrap() error { return e.Err }

// Artefacts is a disk-backed content-addressed registry for one artefact
// namespace holding values of type T, with an in-memory LRU of decoded
// values. All methods are safe for concurrent use.
type Artefacts[T any] struct {
	dir  string
	kind string // artefact noun for error messages ("plan", "calibration")
	// encode appends a value's canonical bytes to dst, a pooled buffer
	// Put owns, and returns the extended buffer with the bytes'
	// fingerprint (a value that already knows its hash saves Put hashing
	// the buffer again); decode validates and deserializes them again and
	// must fail loudly on corrupted input: the store trusts it as the
	// read-path gate. decode is handed the id the bytes were just verified
	// to hash to (a value that records its hash keeps it).
	encode func(dst []byte, v T) ([]byte, string, error)
	decode func(raw []byte, id string) (T, error)
	opts   Options

	mu    sync.Mutex
	cache map[string]*list.Element // fingerprint -> lru element
	lru   *list.List               // front = most recent; values are *cacheEntry[T]
	stats Stats

	// readLat, when set, observes the wall time of each disk read path
	// (memory misses only — retries and quarantine moves included, since
	// that is the latency the caller actually paid). An atomic pointer
	// because the store is opened before the serving layer assembles its
	// registry; SetReadLatency binds it later without racing live Gets.
	readLat atomic.Pointer[obs.Histogram]
}

// SetReadLatency binds the histogram that observes disk-read latencies
// (nil to unbind). Safe to call while Gets are in flight.
func (a *Artefacts[T]) SetReadLatency(h *obs.Histogram) {
	a.readLat.Store(h)
}

type cacheEntry[T any] struct {
	id    string
	value T
}

// OpenArtefacts creates (if needed) and opens an artefact namespace rooted
// at dir. kind names the artefact in errors; encode appends the bytes
// every Put stores to the buffer it is handed and returns them with their
// fingerprint, and decode gates every disk read, given the bytes and the
// fingerprint they were verified against.
func OpenArtefacts[T any](dir, kind string, encode func(dst []byte, v T) ([]byte, string, error), decode func(raw []byte, id string) (T, error), opts Options) (*Artefacts[T], error) {
	if dir == "" {
		return nil, errors.New("planstore: empty directory")
	}
	if encode == nil {
		return nil, errors.New("planstore: nil encoder")
	}
	if decode == nil {
		return nil, errors.New("planstore: nil decoder")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("planstore: creating %s: %w", dir, err)
	}
	return &Artefacts[T]{
		dir:    dir,
		kind:   kind,
		encode: encode,
		decode: decode,
		opts:   opts.withDefaults(),
		cache:  make(map[string]*list.Element),
		lru:    list.New(),
	}, nil
}

// Dir reports the namespace's root directory.
func (a *Artefacts[T]) Dir() string { return a.dir }

// CacheCap reports the (defaulted) LRU capacity — the most decoded
// artefacts the memory tier will hold, and therefore the most a prewarm
// walk can usefully load.
func (a *Artefacts[T]) CacheCap() int { return a.opts.CacheSize }

// validID reports whether id is a well-formed fingerprint — 32 lowercase
// hex characters. Everything else is rejected before touching the
// filesystem, which is also what keeps request-supplied IDs from escaping
// the store directory.
func validID(id string) bool {
	if len(id) != 32 {
		return false
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (a *Artefacts[T]) path(id string) string {
	return filepath.Join(a.dir, id+".json")
}

// putBufs recycles the buffers Put encodes artefacts into: a duplicate
// Put — every repeated design — hashes its bytes there and writes none.
var putBufs = sync.Pool{New: func() any { return new([]byte) }}

// Put persists an artefact, returning its content fingerprint and whether
// this call created the entry. The fingerprint is the one the encode step
// returns with the bytes — for a plan, plan.Fingerprint(), hashed once
// per plan — and v is kept hot in the LRU. Storing content the store
// already holds is a cheap no-op (created == false).
func (a *Artefacts[T]) Put(v T) (id string, created bool, err error) {
	bp := putBufs.Get().(*[]byte)
	defer putBufs.Put(bp)
	raw, id, err := a.encode((*bp)[:0], v)
	if err != nil {
		return "", false, err
	}
	*bp = raw
	path := a.path(id)
	// Content-addressed: an existing file with this name holds these bytes
	// already (or a corruption the decoder will catch loudly). Refreshing
	// its mtime is also the existence probe, so TTL retention (Prune)
	// measures age since the artefact was last stored — a re-Put is a
	// client saying "still in use" — and a Prune that removed the file
	// since cannot leave this call reporting a file that is gone: that
	// fails with ErrNotExist and the bytes are committed again.
	//otfair:nondet-ok TTL-retention mtime refresh; never reaches artefact bytes
	now := time.Now()
	switch err := os.Chtimes(path, now, now); {
	case err == nil:
		a.mu.Lock()
		a.stats.DupPuts++
		a.touch(id, v)
		a.mu.Unlock()
		return id, false, nil
	case !errors.Is(err, os.ErrNotExist):
		return "", false, fmt.Errorf("planstore: refreshing %s: %w", id, err)
	}
	if ferr := a.opts.Fault.Err(faultinject.StoreWrite); ferr != nil {
		return "", false, fmt.Errorf("planstore: writing %s: %w", id, ferr)
	}
	// A fired torn-write fault commits truncated bytes under the live
	// name — exactly the corruption the temp-and-rename protocol exists
	// to rule out — and skips the LRU insert so the next Get must decode
	// the damage from disk. The soak drives the quarantine path with it.
	wr := a.opts.Fault.Corrupt(faultinject.StoreTornWrite, raw)
	torn := len(wr) != len(raw)
	if err := commitFile(a.dir, id, "", path, wr); err != nil {
		return "", false, err
	}
	a.mu.Lock()
	a.stats.Puts++
	if !torn {
		a.touch(id, v)
	}
	a.mu.Unlock()
	return id, true, nil
}

// commitFile is the store's one write path: data lands in a
// same-directory temp file that is written, fsynced, closed and renamed
// over target, so the live name either does not exist or holds the
// complete bytes, never a torn write. name (the id or key the file is
// named after) and label (the noun before it, "" for artefacts) only
// shape the temp name and the error text; a failed step removes the temp
// file through discardTemp.
func commitFile(dir, name, label, target string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("planstore: %stemp file: %w", label, err)
	}
	tmpName := tmp.Name()
	what := label + name
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return discardTemp(fmt.Errorf("planstore: writing %s: %w", what, err), tmpName)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return discardTemp(fmt.Errorf("planstore: syncing %s: %w", what, err), tmpName)
	}
	if err := tmp.Close(); err != nil {
		return discardTemp(fmt.Errorf("planstore: closing %s: %w", what, err), tmpName)
	}
	if err := os.Rename(tmpName, target); err != nil {
		return discardTemp(fmt.Errorf("planstore: committing %s: %w", what, err), tmpName)
	}
	return nil
}

// removeFile is os.Remove, injectable so tests can force removal failures.
var removeFile = os.Remove

// discardTemp removes an abandoned temp file after a failed write, joining
// a removal failure into the returned error chain: on a full or read-only
// disk the operator must see both that the write failed and that its spool
// is still occupying space (TTL Prune will eventually collect it, but only
// if someone runs Prune).
func discardTemp(writeErr error, tmpName string) error {
	if rerr := removeFile(tmpName); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
		return errors.Join(writeErr, fmt.Errorf("planstore: removing temp %s: %w", filepath.Base(tmpName), rerr))
	}
	return writeErr
}

// Get returns the artefact with the given fingerprint, from memory when
// hot, decoded from disk otherwise. The returned value is shared and must
// be treated read-only (all persisted artefacts are immutable).
//
// A disk load that fails validation — wrong content fingerprint or a
// decode error — is retried once (a concurrent re-Put may have just
// replaced the file, and a transient I/O fault deserves a second read
// before condemning the bytes). If the retry fails the same way, the
// file is moved to quarantine/ with a reason file and Get returns a
// *CorruptArtefactError; the fingerprint then reads as ErrNotFound until
// the true bytes are re-Put.
func (a *Artefacts[T]) Get(id string) (T, error) {
	var zero T
	if !validID(id) {
		return zero, fmt.Errorf("%w: %q", ErrBadID, id)
	}
	a.mu.Lock()
	if el, ok := a.cache[id]; ok {
		a.lru.MoveToFront(el)
		a.stats.MemHits++
		value := el.Value.(*cacheEntry[T]).value
		a.mu.Unlock()
		return value, nil
	}
	a.mu.Unlock()

	if h := a.readLat.Load(); h != nil {
		start := time.Now() //otfair:nondet-ok read-latency histogram timing; never reaches artefact bytes
		defer func() { h.ObserveDuration(time.Since(start)) }()
	}
	value, err := a.loadDisk(id)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return zero, err
		}
		a.mu.Lock()
		a.stats.ReadRetries++
		a.mu.Unlock()
		value, err = a.loadDisk(id)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				return zero, err
			}
			var terr *loadError
			if errors.As(err, &terr) && terr.corrupt {
				return zero, a.quarantine(id, err)
			}
			return zero, err
		}
	}
	a.mu.Lock()
	a.stats.DiskHits++
	a.touch(id, value)
	a.mu.Unlock()
	return value, nil
}

// loadError is one failed disk load; corrupt marks validation failures
// (fingerprint mismatch, decode error) as opposed to I/O trouble — only
// corruption condemns the file to quarantine.
type loadError struct {
	corrupt bool
	err     error
}

func (e *loadError) Error() string { return e.err.Error() }
func (e *loadError) Unwrap() error { return e.err }

// loadDisk performs one read-and-validate attempt. A miss is returned as
// ErrNotFound directly (never retried, never quarantined).
func (a *Artefacts[T]) loadDisk(id string) (T, error) {
	var zero T
	if ferr := a.opts.Fault.Err(faultinject.StoreRead); ferr != nil {
		return zero, &loadError{err: fmt.Errorf("planstore: opening %s: %w", id, ferr)}
	}
	raw, err := os.ReadFile(a.path(id))
	if errors.Is(err, os.ErrNotExist) {
		a.mu.Lock()
		a.stats.Misses++
		a.mu.Unlock()
		return zero, fmt.Errorf("%w: %s %s", ErrNotFound, a.kind, id)
	}
	if err != nil {
		return zero, &loadError{err: fmt.Errorf("planstore: opening %s: %w", id, err)}
	}
	// Enforce content addressing on the read path too: the decoder
	// validates structure, not identity, so a file renamed or restored
	// under the wrong name would otherwise serve the wrong artefact under
	// this fingerprint.
	if got := fingerprint(raw); got != id {
		return zero, &loadError{corrupt: true, err: fmt.Errorf("planstore: %s %s: content fingerprint is %s (file corrupted or misnamed)", a.kind, id, got)}
	}
	value, err := a.decode(raw, id)
	if err != nil {
		return zero, &loadError{corrupt: true, err: fmt.Errorf("planstore: %s %s: %w", a.kind, id, err)}
	}
	return value, nil
}

// QuarantineDir reports the namespace's quarantine directory (which may
// not exist yet — it is created on first quarantine).
func (a *Artefacts[T]) QuarantineDir() string {
	return filepath.Join(a.dir, QuarantineDirName)
}

// quarantine moves a twice-condemned artefact file out of the live
// namespace into quarantine/ (same filesystem, so the move is an atomic
// rename: the file is always fully in one place or the other), drops any
// stale memory entry, records why in a sibling reason file, and returns
// the *CorruptArtefactError the caller surfaces. If the move itself
// fails, the error says so and the live file stays — better a loud
// repeat failure than losing the evidence.
func (a *Artefacts[T]) quarantine(id string, cause error) error {
	cerr := &CorruptArtefactError{Kind: a.kind, ID: id, Err: cause}
	a.mu.Lock()
	if el, ok := a.cache[id]; ok {
		a.lru.Remove(el)
		delete(a.cache, id)
	}
	a.stats.Quarantined++
	a.mu.Unlock()
	qdir := a.QuarantineDir()
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		cerr.Err = errors.Join(cause, fmt.Errorf("planstore: creating %s: %w", qdir, err))
		return cerr
	}
	if err := os.Rename(a.path(id), filepath.Join(qdir, id+".json")); err != nil && !errors.Is(err, os.ErrNotExist) {
		cerr.Err = errors.Join(cause, fmt.Errorf("planstore: quarantining %s: %w", id, err))
		return cerr
	}
	cerr.Quarantined = true
	reason := fmt.Sprintf("kind: %s\nid: %s\nquarantined: %s\nreason: %v\n",
		//otfair:nondet-ok quarantine audit timestamp for operators; the live set never reads it back
		a.kind, id, time.Now().UTC().Format(time.RFC3339), cause)
	if err := os.WriteFile(filepath.Join(qdir, id+".reason"), []byte(reason), 0o644); err != nil {
		// The bad bytes are already out of the live set; a failed reason
		// file must not resurrect them. Surface it in the chain instead.
		cerr.Err = errors.Join(cause, fmt.Errorf("planstore: writing quarantine reason for %s: %w", id, err))
	}
	a.opts.Logger.Warn("artefact quarantined",
		slog.String("component", "planstore"), slog.String("kind", a.kind),
		slog.String("id", id), slog.Any("error", cause))
	return cerr
}

// Delete removes an artefact from memory and disk. Deleting an absent
// artefact is a no-op.
func (a *Artefacts[T]) Delete(id string) error {
	if !validID(id) {
		return fmt.Errorf("%w: %q", ErrBadID, id)
	}
	a.mu.Lock()
	if el, ok := a.cache[id]; ok {
		a.lru.Remove(el)
		delete(a.cache, id)
	}
	a.mu.Unlock()
	if err := os.Remove(a.path(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("planstore: deleting %s: %w", id, err)
	}
	return nil
}

// IDs lists every fingerprint persisted on disk, in directory order.
// Temp files from in-flight or crashed writes and nested namespace
// directories are excluded.
func (a *Artefacts[T]) IDs() ([]string, error) {
	live, _, err := scanDir(a.dir, ".json")
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, f := range live {
		ids = append(ids, f.id)
	}
	return ids, nil
}

// dirFile is one committed file a namespace scan found: the id its name
// carries and its directory entry (whose Info stats the file lazily).
type dirFile struct {
	id string
	os.DirEntry
}

// scanDir is the one listing every namespace walk starts from: the
// committed files named <id><ext> with a well-formed id, in directory
// order, and separately the temp spools of in-flight or crashed writes
// (".tmp-" in the name). Subdirectories and other debris are skipped.
func scanDir(dir, ext string) (live []dirFile, temps []os.DirEntry, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("planstore: listing %s: %w", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if id, ok := strings.CutSuffix(name, ext); ok && validID(id) {
			live = append(live, dirFile{id: id, DirEntry: e})
		} else if strings.Contains(name, ".tmp-") {
			temps = append(temps, e)
		}
	}
	return live, temps, nil
}

// olderThan reports whether e was last modified before cutoff; an entry
// that cannot be stat'ed (it raced with a concurrent delete) is not.
func olderThan(e os.DirEntry, cutoff time.Time) bool {
	info, err := e.Info()
	return err == nil && info.ModTime().Before(cutoff)
}

// Prune enforces an age-based retention policy: every artefact whose file
// modification time is older than maxAge is removed from disk and dropped
// from the LRU, and so are abandoned temp files from crashed writes and
// aged-out quarantine/ evidence (corrupt bytes and reason files). It
// returns the number of artefacts removed, quarantined ones included.
//
// Content addressing is what makes TTL retention safe: a pruned artefact
// that is still needed is simply re-Put under the identical fingerprint by
// whoever holds it — retention never changes any surviving artefact's
// identity, and each removal is an independent atomic unlink, so a crash
// mid-prune leaves a smaller but fully consistent store.
func (a *Artefacts[T]) Prune(maxAge time.Duration) (removed int, err error) {
	if maxAge <= 0 {
		return 0, errors.New("planstore: non-positive prune age")
	}
	live, temps, err := scanDir(a.dir, ".json")
	if err != nil {
		return 0, err
	}
	//otfair:nondet-ok prune cutoff for ops retention; stored artefact bytes are content-addressed and unaffected
	cutoff := time.Now().Add(-maxAge)
	for _, f := range live {
		if !olderThan(f, cutoff) {
			continue
		}
		if derr := a.Delete(f.id); derr != nil {
			return removed, derr
		}
		removed++
	}
	// Only temp spools older than the TTL are provably abandoned (a crashed
	// write can never be completed); a younger one's atomic rename may
	// still be in flight in a concurrent write, and deleting it would race
	// the rename and fail the writer.
	for _, e := range temps {
		if !olderThan(e, cutoff) {
			continue
		}
		name := e.Name()
		if err := removeFile(filepath.Join(a.dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return removed, fmt.Errorf("planstore: pruning %s: %w", name, err)
		}
	}
	// Sweep quarantine/ by the same age policy: quarantined bytes and
	// their reason files are operator evidence, not live data, and must
	// not accumulate forever. Each quarantined artefact counts once, by
	// its .json; reason files ride along.
	qdir := a.QuarantineDir()
	qentries, qerr := os.ReadDir(qdir)
	if qerr != nil {
		if errors.Is(qerr, os.ErrNotExist) {
			return removed, nil
		}
		return removed, fmt.Errorf("planstore: listing %s: %w", qdir, qerr)
	}
	for _, e := range qentries {
		if e.IsDir() || !olderThan(e, cutoff) {
			continue
		}
		name := e.Name()
		if rerr := removeFile(filepath.Join(qdir, name)); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
			return removed, fmt.Errorf("planstore: pruning quarantine/%s: %w", name, rerr)
		}
		if strings.HasSuffix(name, ".json") {
			removed++
			// Quarantined evidence leaving the store is an operator-visible
			// event — it was kept precisely to be looked at.
			a.opts.Logger.Info("pruned quarantined artefact",
				slog.String("component", "planstore"), slog.String("kind", a.kind),
				slog.String("id", strings.TrimSuffix(name, ".json")),
				slog.Duration("older_than", maxAge))
		}
	}
	return removed, nil
}

// newest reports the youngest live artefact in the namespace by file
// modification time, the lexicographically greater id winning ties so
// the answer is total; id is "" when the namespace is empty.
func (a *Artefacts[T]) newest() (id string, mtime time.Time, err error) {
	live, _, err := scanDir(a.dir, ".json")
	if err != nil {
		return "", time.Time{}, err
	}
	for _, f := range live {
		info, ierr := f.Info()
		if ierr != nil {
			continue
		}
		if mt := info.ModTime(); mt.After(mtime) || (mt.Equal(mtime) && f.id > id) {
			id, mtime = f.id, mt
		}
	}
	return id, mtime, nil
}

// NewestMTime reports the modification time of the youngest live artefact
// in the namespace (zero time when the namespace is empty). Scrape-time
// artefact-age gauges read it so stale-plan alerting works even with the
// drift watcher disabled.
func (a *Artefacts[T]) NewestMTime() (time.Time, error) {
	_, mtime, err := a.newest()
	return mtime, err
}

// Latest returns the youngest live artefact (see newest for the order),
// or ErrNotFound when the namespace is empty. StagedSource resolves "the
// current staged research set" through it.
func (a *Artefacts[T]) Latest() (string, T, error) {
	id, _, err := a.newest()
	if err == nil && id == "" {
		err = fmt.Errorf("planstore: %s namespace is empty: %w", a.kind, ErrNotFound)
	}
	if err != nil {
		var zero T
		return "", zero, err
	}
	v, err := a.Get(id)
	if err != nil {
		return "", v, err
	}
	return id, v, nil
}

// Stats returns a snapshot of the cumulative counters.
func (a *Artefacts[T]) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// touch inserts or refreshes an LRU entry; caller holds a.mu.
func (a *Artefacts[T]) touch(id string, value T) {
	if el, ok := a.cache[id]; ok {
		a.lru.MoveToFront(el)
		el.Value.(*cacheEntry[T]).value = value
		return
	}
	a.cache[id] = a.lru.PushFront(&cacheEntry[T]{id: id, value: value})
	for a.lru.Len() > a.opts.CacheSize {
		back := a.lru.Back()
		a.lru.Remove(back)
		delete(a.cache, back.Value.(*cacheEntry[T]).id)
		a.stats.Evictions++
	}
}
