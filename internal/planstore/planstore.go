// Package planstore is the durable artefact tier of the repair service: a
// disk-backed, content-addressed registry of serialized deployment
// artefacts — repair plans, blind calibrations, staged research sets —
// keyed by their 128-bit content fingerprint (core.FingerprintBytes), with an
// in-memory LRU of decoded values on top.
//
// The paper's whole deployment story is the design/apply split — Algorithm 1
// runs once on a small research set, Algorithm 2 then repairs unbounded
// archival torrents, possibly in other processes and long after design
// time. The store is the boundary object: repair fleets reload designed
// plans across process restarts by content hash, the serving layer
// (internal/repairsvc) resolves request artefact IDs through it, and because
// the key is a content hash the store deduplicates structurally — designing
// the same plan twice, or uploading an artefact a peer already designed, is
// a no-op write to the same file.
//
// One generic namespace type, Artefacts[T], implements the whole artefact
// lifecycle; the typed stores are aliases of its instantiations, each
// differing only in directory, kind noun and codec.
//
// Layout: one `<fingerprint>.json` per artefact under the namespace
// directory, each exactly the canonical serialized bytes; plans live at the
// store root (Store), calibrations under `calibrations/`
// (CalibrationStore), staged research sets under `research/`
// (ResearchStore) and lineage refs under `refs/<lineage>.ref` (Refs), each
// ref holding `<fingerprint>\n`. A `designs/` directory of design links
// left by older builds is never read and is safe to delete. Every file is
// written through one same-directory temp file, fsync and rename, so a
// crash mid-write can never leave a live truncated entry; every load
// re-validates through the artefact's full deserializer, so a corrupted
// file fails loudly instead of repairing data with garbage — loudly and
// terminally: a file that fails validation twice is moved to
// `quarantine/<id>.json` with a `<id>.reason` note and surfaces as a typed
// *CorruptArtefactError until the true bytes are re-stored.
package planstore

import (
	"bytes"
	"errors"
	"log/slog"
	"path/filepath"

	"otfair/internal/blind"
	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/faultinject"
)

// ErrNotFound reports a fingerprint absent from both memory and disk.
var ErrNotFound = errors.New("planstore: artefact not found")

// ErrBadID reports a malformed fingerprint (not 32 lowercase hex chars) —
// a caller error, distinct from a store miss, so HTTP layers can map it to
// a 4xx instead of a server error.
var ErrBadID = errors.New("planstore: malformed artefact id")

// Options configures a store.
type Options struct {
	// CacheSize bounds the in-memory LRU of decoded artefacts
	// (default 64; minimum 1). Disk retention is unbounded unless Prune is
	// called — artefacts are a few hundred kilobytes at paper scale and
	// the store is the durability tier.
	CacheSize int
	// Fault is the fault-injection harness (nil in production): reads
	// consult store.read, writes consult store.write and store.torn-write,
	// so the soak can exercise the retry and quarantine paths
	// deterministically.
	Fault *faultinject.Injector
	// Logger receives store lifecycle events (nil = discard): artefact
	// quarantines at Warn — an operator-actionable corruption — and Prune's
	// quarantine-evidence sweeps at Info, the same level convention the
	// drift loop's transition log uses.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 64
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

// Stats counts store traffic, DesignCacheStats-style: cumulative and
// monotone, for diagnostics and capacity planning.
type Stats struct {
	// MemHits are Gets served from the in-memory LRU.
	MemHits uint64
	// DiskHits are Gets that missed memory but loaded from disk.
	DiskHits uint64
	// Misses are Gets found nowhere.
	Misses uint64
	// Puts counts stores of new content; DupPuts counts content-identical
	// re-stores (deduplicated by fingerprint).
	Puts, DupPuts uint64
	// Evictions counts LRU drops (the disk copy always remains).
	Evictions uint64
	// ReadRetries counts disk loads that failed once and were retried;
	// Quarantined counts artefacts moved to quarantine/ after the retry
	// also failed. Both feed the serving layer's resilience metrics.
	ReadRetries, Quarantined uint64
}

// fingerprint is the single hash-to-ID encoding every namespace keys by,
// shared with core.Plan.Fingerprint so plan IDs agree across layers.
func fingerprint(raw []byte) string { return core.FingerprintBytes(raw) }

// hashed completes an encoder's result with the fingerprint of its bytes
// — the encode step of the namespaces whose values carry no recorded
// hash.
func hashed(raw []byte, err error) ([]byte, string, error) {
	if err != nil {
		return nil, "", err
	}
	return raw, fingerprint(raw), nil
}

// Store is the plan namespace: a disk-backed registry of repair plans at
// the store root. All methods are safe for concurrent use.
type Store = Artefacts[*core.Plan]

// Open creates (if needed) and opens a plan store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	return OpenArtefacts(dir, "plan", func(dst []byte, plan *core.Plan) ([]byte, string, error) {
		if plan == nil {
			return nil, "", errors.New("planstore: nil plan")
		}
		raw, err := plan.AppendCanonical(dst)
		if err != nil {
			return nil, "", err
		}
		// Recorded by AppendCanonical (or before it): no second hash.
		id, err := plan.Fingerprint()
		return raw, id, err
	}, core.ReadStoredPlan, opts)
}

// CalibrationStore is the blind-calibration namespace of an artefact
// store: fitted QDA/pooled models (blind.Calibration) keyed by content
// fingerprint, under `calibrations/` of the store root.
type CalibrationStore = Artefacts[*blind.Calibration]

// OpenCalibrations creates (if needed) and opens the calibration namespace
// under a store root — typically the same directory a plan Store is rooted
// at, so one -store flag provisions both tiers.
func OpenCalibrations(root string, opts Options) (*CalibrationStore, error) {
	return OpenArtefacts(filepath.Join(root, "calibrations"), "calibration", func(dst []byte, cal *blind.Calibration) ([]byte, string, error) {
		if cal == nil {
			return nil, "", errors.New("planstore: nil calibration")
		}
		buf := bytes.NewBuffer(dst)
		if err := cal.WriteJSON(buf); err != nil {
			return nil, "", err
		}
		return hashed(buf.Bytes(), nil)
	}, func(raw []byte, _ string) (*blind.Calibration, error) {
		return blind.ReadCalibration(bytes.NewReader(raw))
	}, opts)
}

// ResearchStore is the staged-research namespace of an artefact store:
// research tables (dataset.Table) persisted as canonical CSV keyed by
// content fingerprint, under `research/` of the store root — candidate
// inputs for the drift loop's refits, delivered through POST /v1/research.
// Staging is content-addressed like every other artefact tier, so
// re-delivering the same records is an idempotent no-op and a torn upload
// can never be mistaken for a research set (the fingerprint check
// quarantines it).
type ResearchStore = Artefacts[*dataset.Table]

// OpenResearch creates (if needed) and opens the research namespace under
// a store root — typically the same directory the plan Store is rooted
// at, so one -store flag provisions every tier.
func OpenResearch(root string, opts Options) (*ResearchStore, error) {
	return OpenArtefacts(filepath.Join(root, "research"), "research set", func(dst []byte, tbl *dataset.Table) ([]byte, string, error) {
		if tbl == nil || tbl.Len() == 0 {
			return nil, "", errors.New("planstore: empty research set")
		}
		buf := bytes.NewBuffer(dst)
		if err := tbl.WriteCSV(buf); err != nil {
			return nil, "", err
		}
		return hashed(buf.Bytes(), nil)
	}, func(raw []byte, _ string) (*dataset.Table, error) {
		return dataset.ReadCSV(bytes.NewReader(raw))
	}, opts)
}
