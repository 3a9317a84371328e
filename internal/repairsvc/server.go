package repairsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"mime"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"otfair/internal/blind"
	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/driftwatch"
	"otfair/internal/fairmetrics"
	"otfair/internal/faultinject"
	"otfair/internal/kde"
	"otfair/internal/monitor"
	"otfair/internal/obs"
	"otfair/internal/planstore"
	"otfair/internal/researchfeed"
	"otfair/internal/rng"
)

// ServerOptions configures the HTTP front end.
type ServerOptions struct {
	// MetricWindow is the per-plan rolling window (records) the /v1/metrics
	// E estimates are computed on (default 2048).
	MetricWindow int
	// Metric configures the E estimator used by /v1/metrics.
	Metric fairmetrics.Config
	// Monitor configures the per-plan drift monitor fed by repair traffic.
	Monitor monitor.Options
	// MaxAlarms bounds the recent-alarm ring kept per plan (default 32).
	MaxAlarms int
	// MaxBodyBytes caps request bodies (default 1 GiB, -1 = unlimited).
	// The repair spool and the design/upload readers honour it, so one
	// request cannot fill the disk or RAM.
	MaxBodyBytes int64
	// MaxBoundPlans bounds the per-plan serving states held in memory
	// (default 64). Each bound plan pins its engine's alias tables and two
	// metric windows; touching more distinct plans than this evicts the
	// least-recently-used state (its cumulative counters, windows and
	// recent alarms reset if the plan is bound again — the durable tier is
	// the store, not the serving state).
	MaxBoundPlans int
	// CalibrationCacheSize bounds the calibration store's in-memory LRU
	// (default: the planstore default). cmd/fairserved wires -cache here
	// so both artefact tiers size together.
	CalibrationCacheSize int
	// MaxBoundCalibrations bounds the calibrated engines bound per plan
	// (default 8). Each holds the pooled plan's alias tables, so without a
	// cap a stream of novel calibrations against one hot plan would grow
	// memory without limit; the least-recently-used engine is evicted and
	// rebinds transparently on the next touch.
	MaxBoundCalibrations int
	// MaxInflight bounds concurrently admitted repair requests
	// (default 64, -1 = unlimited). Excess load is shed with 429 and a
	// Retry-After hint instead of queueing without bound.
	MaxInflight int
	// MaxQueuedBytes bounds the total request-body bytes spooled across
	// all admitted repair requests (default 4 GiB, -1 = unlimited). A body
	// is held in memory up to one chunk, else spooled to disk; either way
	// its bytes count here. A spool that would exceed it is shed with 429
	// mid-upload.
	MaxQueuedBytes int64
	// DefaultDeadline is the server-wide per-request repair budget
	// (0 = none). Requests may tighten or set it with ?deadline_ms=; a
	// blown budget aborts the repair at the engines' cancellation
	// boundaries and answers 503 when no byte has been sent.
	DefaultDeadline time.Duration
	// RetryAfterSeconds is the Retry-After hint on shed and draining
	// responses (default 1).
	RetryAfterSeconds int
	// Fault is the fault-injection harness (nil in production), passed
	// through to every engine the server binds. The stores carry their
	// own injector via planstore.Options.
	Fault *faultinject.Injector
	// Registry receives every Prometheus family the server exports
	// (default: a fresh registry). Passing one in lets cmd/fairserved add
	// process-level series next to the server's and serve them all from
	// GET /metrics.
	Registry *obs.Registry
	// SlowRequest is the total-duration threshold at and above which a
	// repair request is counted slow, retained in the slow ring (surfaced
	// by /v1/metrics) and logged at Warn (0 = slow tracking off).
	SlowRequest time.Duration
	// TraceSample turns on fine-grained span timing — decode per record,
	// monitor and encode per span — for every N-th repair request (1 = all,
	// 0 = never). Coarse request-level stage spans are always recorded;
	// sampling only gates the spans read inside the repair loop.
	TraceSample uint64
	// Logger receives structured request logs (nil = discard). Repair
	// requests log at Info with their request ID; slow ones at Warn with a
	// stage breakdown.
	Logger *slog.Logger
	// DriftWatch, when non-nil, arms the drift-observability control loop:
	// every bound plan gets a driftwatch.Watcher fed by the monitor's KS/PSI
	// ratios and the calibrated engines' confidence drift, and an alarmed plan
	// triggers the recalibration loop (refit from RecalibrateFrom, canary on
	// a reservoir of recent traffic, atomic ref swap on pass). The loop runs
	// in its own goroutine off the serve path, and repairs keep pinning
	// their explicit fingerprints — a swap never changes the bytes of any
	// in-flight or future request.
	DriftWatch *driftwatch.Config
	// RecalibrateFrom is the fresh research CSV the loop refits from. An
	// alarmed plan with no configured source finishes refit_failed — the
	// alarm is still exported, there is just nothing to act with.
	RecalibrateFrom string
	// RecalibrateURL is an HTTP research feed the loop refits from (ETag
	// change detection, per-attempt timeouts). Source precedence:
	// FeedSource, then RecalibrateURL, then RecalibrateFrom, then the
	// staged namespace when ResearchToken enables it.
	RecalibrateURL string
	// ResearchToken, when non-empty, enables the authenticated
	// POST /v1/research staging endpoint; with no URL or file source
	// configured, staged sets become the drift loop's refit source.
	ResearchToken string
	// FeedSource overrides the refit source entirely (tests, embedders).
	FeedSource researchfeed.Source
	// FeedRetry is the seeded backoff retry policy wrapped around every
	// refit fetch.
	FeedRetry researchfeed.RetryPolicy
	// FeedBreaker tunes the feed circuit breaker.
	FeedBreaker researchfeed.BreakerConfig
	// FeedAttemptTimeout bounds each HTTP feed attempt when the server
	// builds the source from RecalibrateURL (default 10s).
	FeedAttemptTimeout time.Duration
	// FeedMinRecords is the sanity floor a fetched research set must
	// clear before it may refit a plan (0 = default 16, negative = no
	// floor). POST /v1/research enforces the same floor at the door.
	FeedMinRecords int
	// DriftCheckEvery, when positive (with DriftWatch armed), runs a
	// timer-driven drift check over every bound plan so idle-but-drifted
	// artefacts still recalibrate without waiting for repair traffic
	// (0 = checks only ride repair requests).
	DriftCheckEvery time.Duration
	// RefitWorkers bounds concurrent refits across all lineages
	// (default 1) — the shared refit budget.
	RefitWorkers int
	// RefitQueue bounds refit jobs waiting for a worker (default 4); an
	// alarm past it lands refit_failed instead of queueing unboundedly.
	RefitQueue int
	// Clock injects the wall clock the feed and drift timer use (nil =
	// system clock). The serve path never reads it — determinism there
	// is lint-enforced.
	Clock researchfeed.Clock
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.MetricWindow <= 0 {
		o.MetricWindow = 2048
	}
	if o.MaxAlarms <= 0 {
		o.MaxAlarms = 32
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 1 << 30
	}
	if o.MaxBoundPlans <= 0 {
		o.MaxBoundPlans = 64
	}
	if o.MaxBoundCalibrations <= 0 {
		o.MaxBoundCalibrations = 8
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = 64
	}
	if o.MaxQueuedBytes == 0 {
		o.MaxQueuedBytes = 4 << 30
	}
	if o.RetryAfterSeconds <= 0 {
		o.RetryAfterSeconds = 1
	}
	if o.FeedMinRecords == 0 {
		o.FeedMinRecords = 16
	}
	if o.RefitWorkers <= 0 {
		o.RefitWorkers = 1
	}
	if o.RefitQueue <= 0 {
		o.RefitQueue = 4
	}
	if o.Clock == nil {
		o.Clock = researchfeed.SystemClock{}
	}
	return o
}

// limitBody applies the configured request-body cap; exceeding it makes
// reads fail with *http.MaxBytesError, reported as 413.
func (s *Server) limitBody(w http.ResponseWriter, r *http.Request) {
	if s.opts.MaxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	}
}

// errStatus maps an error to its HTTP status: body-cap overruns are 413,
// store misses 404, malformed plan IDs 400, anything else 500.
func errStatus(err error) int {
	return errStatusOr(err, http.StatusInternalServerError)
}

// errCalibrationMismatch marks a plan/calibration pairing the client got
// wrong — a conflict between two valid artefacts, not a server fault.
var errCalibrationMismatch = errors.New("repairsvc: calibration/plan mismatch")

// errStatusOr is errStatus with a caller-chosen fallback for errors the
// mapping does not recognize.
func errStatusOr(err error, fallback int) int {
	if code, ok := resilienceStatus(err); ok {
		return code
	}
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, planstore.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, planstore.ErrBadID):
		return http.StatusBadRequest
	case errors.Is(err, errCalibrationMismatch):
		return http.StatusConflict
	case errors.Is(err, errSpoolFile):
		return http.StatusInternalServerError
	default:
		return fallback
	}
}

// Server exposes plan design, storage, repair and metrics over HTTP:
//
//	POST /v1/plans               design (text/csv research body) or upload (JSON)
//	GET  /v1/plans               list stored plan fingerprints
//	GET  /v1/plans/{id}          download one plan (canonical JSON)
//	POST /v1/calibrations        fit a blind calibration (text/csv research
//	                             body, ?plan=<id>) or upload one (JSON)
//	GET  /v1/calibrations        list stored calibration fingerprints
//	GET  /v1/calibrations/{id}   download one calibration (canonical JSON)
//	POST /v1/repair              repair a CSV or NDJSON record stream; with
//	                             ?calibration=<id> the stream may carry no
//	                             s labels (blind repair)
//	GET  /v1/metrics             JSON serving state: resilience, store and
//	                             observability summaries always; drift, E
//	                             and blind telemetry with ?plan=
//	GET  /metrics                Prometheus text exposition of the metric
//	                             registry
//	GET  /v1/buildinfo           build identity (version, go, vcs revision)
//	GET  /healthz                liveness (200 as long as the process runs)
//	GET  /readyz                 readiness (503 while draining or when the
//	                             store fails a writability round-trip)
//
// It is an http.Handler; wrap it in an http.Server for timeouts and
// graceful shutdown (cmd/fairserved does, calling BeginDrain first so
// readiness flips before the listener closes).
type Server struct {
	store    *planstore.Store
	cals     *planstore.CalibrationStore
	refs     *planstore.Refs
	research *planstore.ResearchStore
	opts     ServerOptions
	mux      *http.ServeMux

	gate     admission
	draining atomic.Bool
	res      resilienceCounters
	om       *serverObs

	// Drift machinery (nil / zero unless DriftWatch is armed): the
	// research feed refits fetch through, the shared refit pool, and the
	// idle-artefact check timer.
	feed      *researchfeed.Feed
	refit     *refitPool
	timerStop chan struct{}
	timerWG   sync.WaitGroup
	closeOnce sync.Once

	mu     sync.Mutex
	states map[string]*planState
	clock  uint64 // monotone LRU clock for states, guarded by mu
}

// planState is the per-plan serving state: the bound labelled engine plus
// the observability side (drift monitor and rolling metric windows, both
// fed serially from the repair sink path under mu) and the engines derived
// from it per calibration, all sharing the labelled engine's sampler.
type planState struct {
	// id is the fingerprint this state was bound under — the lineage the
	// drift loop records its ref swaps against.
	id     string
	engine *Engine
	// watch is the drift state machine (nil unless ServerOptions.DriftWatch);
	// it has its own lock and scrape-safe atomics, so it is fed outside mu.
	watch *driftwatch.Watcher
	// loopRunning serializes the recalibration loop: at most one goroutine
	// per plan state, claimed with a CAS after the watcher alarms.
	loopRunning atomic.Bool
	// lastUsed is the Server.clock value of the most recent touch,
	// guarded by Server.mu.
	lastUsed uint64

	mu sync.Mutex
	// lastResearchFP is the feed content fingerprint the last *completed*
	// loop run (swap or rollback) was judged on, guarded by mu. A later
	// alarm whose fetch returns the same fingerprint finishes
	// refit_skipped_stale: rerunning the design would reproduce the same
	// candidate and the same verdict. Transient failures do not record
	// it, so a refit_failed alarm retries on the next check.
	lastResearchFP string
	mon            *monitor.Monitor
	alarms         []monitor.Alarm // ring of the most recent MaxAlarms
	alarmsTotal    int64
	original       *recordWindow
	repaired       *recordWindow
	blind          map[string]*blindEntry // calibration id -> bound engine
	blindClock     uint64                 // monotone LRU clock for blind, guarded by mu
}

// observe feeds one delivered span to the plan's observability state,
// taking mu once: the original window and the drift monitor see the
// originals, the repaired window their repairs, and the alarm ring keeps
// the most recent maxAlarms. The drift watcher has its own lock and only
// copies records its reservoir admits, so it is fed after mu is released.
// A repair keeps its original's s, so the labelled records the monitor
// pass counts are those of both spans.
func (ps *planState) observe(orig, repaired []dataset.Record, maxAlarms int) {
	ps.mu.Lock()
	labelled := 0
	for _, rec := range orig {
		if rec.S == dataset.SUnknown {
			continue
		}
		labelled++
		if alarms, _ := ps.mon.Observe(rec); len(alarms) > 0 {
			ps.alarmsTotal += int64(len(alarms))
			ps.alarms = append(ps.alarms, alarms...)
		}
	}
	if over := len(ps.alarms) - maxAlarms; over > 0 {
		ps.alarms = append(ps.alarms[:0], ps.alarms[over:]...)
	}
	ps.original.addSpan(orig, labelled)
	ps.repaired.addSpan(repaired, labelled)
	ps.mu.Unlock()
	if ps.watch != nil {
		for _, rec := range orig {
			ps.watch.Observe(rec)
		}
	}
}

// blindEntry tracks one bound calibrated engine with its LRU recency.
type blindEntry struct {
	engine   *Engine
	lastUsed uint64
}

// recordWindow is a fixed-capacity ring of labelled records: the most
// recent len(buf) records with a known s, record j of the stream in slot
// j mod len(buf).
type recordWindow struct {
	dim  int
	buf  []dataset.Record
	next int
	full bool
}

func newRecordWindow(dim, capacity int) *recordWindow {
	return &recordWindow{dim: dim, buf: make([]dataset.Record, capacity)}
}

// addSpan adds the labelled records of a span holding that many, in order.
// Only the last len(buf) of them outlast the span, so the rest are never
// read: next moves past their slots and the kept ones land where adding
// every record in turn would leave them.
func (w *recordWindow) addSpan(recs []dataset.Record, labelled int) {
	if labelled == 0 {
		return
	}
	if skip := labelled - len(w.buf); skip > 0 {
		start, kept := len(recs), 0
		for kept < len(w.buf) && start > 0 {
			if start--; recs[start].S != dataset.SUnknown {
				kept++
			}
		}
		if w.next += skip; w.next >= len(w.buf) {
			w.next %= len(w.buf)
			w.full = true
		}
		recs = recs[start:]
	}
	for _, rec := range recs {
		if rec.S == dataset.SUnknown {
			continue
		}
		w.buf[w.next] = rec
		w.next++
		if w.next == len(w.buf) {
			w.next = 0
			w.full = true
		}
	}
}

// table materializes the window (nil when empty).
func (w *recordWindow) table() *dataset.Table {
	n := w.next
	if w.full {
		n = len(w.buf)
	}
	if n == 0 {
		return nil
	}
	t, err := dataset.NewTable(w.dim, nil)
	if err != nil {
		return nil
	}
	for i := 0; i < n; i++ {
		if t.Append(w.buf[i]) != nil {
			return nil
		}
	}
	return t
}

// NewServer builds the HTTP layer over a plan store. The calibration
// namespace is opened under the same store root, so one directory
// provisions both artefact tiers.
func NewServer(store *planstore.Store, opts ServerOptions) (*Server, error) {
	if store == nil {
		return nil, errors.New("repairsvc: nil store")
	}
	cals, err := planstore.OpenCalibrations(store.Dir(), planstore.Options{CacheSize: opts.CalibrationCacheSize, Fault: opts.Fault, Logger: opts.Logger})
	if err != nil {
		return nil, err
	}
	refs, err := planstore.OpenRefs(store.Dir(), opts.Logger)
	if err != nil {
		return nil, err
	}
	research, err := planstore.OpenResearch(store.Dir(), planstore.Options{CacheSize: opts.CalibrationCacheSize, Fault: opts.Fault, Logger: opts.Logger})
	if err != nil {
		return nil, err
	}
	s := &Server{
		store:    store,
		cals:     cals,
		refs:     refs,
		research: research,
		opts:     opts.withDefaults(),
		mux:      http.NewServeMux(),
		states:   make(map[string]*planState),
	}
	s.gate = admission{maxInflight: s.opts.MaxInflight, maxBytes: s.opts.MaxQueuedBytes}
	// Bind the observability assembly after the stores exist (it hooks
	// their read latencies) and before any route can run.
	s.om = newServerObs(s)
	// Drift machinery, only when the watcher is armed: a plain serving
	// deployment runs zero background goroutines, same as before.
	if s.opts.DriftWatch != nil {
		if src := s.feedSource(); src != nil {
			s.feed = researchfeed.New(src, researchfeed.Config{
				Retry:    s.opts.FeedRetry,
				Breaker:  s.opts.FeedBreaker,
				Clock:    s.opts.Clock,
				Fault:    s.opts.Fault,
				Registry: s.om.reg,
				Logger:   s.opts.Logger,
			})
		}
		s.refit = newRefitPool(s, s.opts.RefitWorkers, s.opts.RefitQueue)
		if s.opts.DriftCheckEvery > 0 {
			s.timerStop = make(chan struct{})
			s.timerWG.Add(1)
			go s.runDriftTimer()
		}
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /v1/buildinfo", s.handleBuildInfo)
	s.mux.HandleFunc("POST /v1/plans", s.handlePlansPost)
	s.mux.HandleFunc("GET /v1/plans", s.handlePlansList)
	s.mux.HandleFunc("GET /v1/plans/{id}", s.handlePlanGet)
	s.mux.HandleFunc("POST /v1/calibrations", s.handleCalibrationsPost)
	s.mux.HandleFunc("GET /v1/calibrations", s.handleCalibrationsList)
	s.mux.HandleFunc("GET /v1/calibrations/{id}", s.handleCalibrationGet)
	s.mux.HandleFunc("POST /v1/repair", s.handleRepair)
	s.mux.HandleFunc("POST /v1/research", s.handleResearchPost)
	s.mux.HandleFunc("GET /v1/refs", s.handleRefsList)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics", s.handleMetricsProm)
	return s, nil
}

// feedSource picks the drift loop's research source: an explicit
// FeedSource wins, then the HTTP URL, then the local file, then the
// staged namespace when the staging endpoint is enabled. Nil when no
// source is configured — the loop then finishes alarms refit_failed.
func (s *Server) feedSource() researchfeed.Source {
	switch {
	case s.opts.FeedSource != nil:
		return s.opts.FeedSource
	case s.opts.RecalibrateURL != "":
		return &researchfeed.HTTPSource{URL: s.opts.RecalibrateURL, AttemptTimeout: s.opts.FeedAttemptTimeout}
	case s.opts.RecalibrateFrom != "":
		return &researchfeed.FileSource{Path: s.opts.RecalibrateFrom}
	case s.opts.ResearchToken != "":
		return &researchfeed.StagedSource{Store: s.research}
	}
	return nil
}

// Close stops the server's background drift machinery — the check timer
// and the refit worker pool, cancelling any in-flight refit's fetch or
// backoff sleep — and waits for it to exit. It does not touch in-flight
// HTTP requests (that is BeginDrain + http.Server.Shutdown's job) and is
// a no-op on a server without DriftWatch. Safe to call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.timerStop != nil {
			close(s.timerStop)
		}
		s.timerWG.Wait()
		if s.refit != nil {
			s.refit.close()
		}
	})
}

// Refs exposes the lineage → active fingerprint namespace the drift loop
// swaps through.
func (s *Server) Refs() *planstore.Refs { return s.refs }

// handleRefsList reports every lineage → active mapping: which artefacts
// the recalibration loop has replaced, and with what.
func (s *Server) handleRefsList(w http.ResponseWriter, r *http.Request) {
	m, err := s.refs.List()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"refs": m})
}

// Registry exposes the server's metric registry so callers can register
// additional series (process stats, build gauges) on the same /metrics
// exposition.
func (s *Server) Registry() *obs.Registry { return s.om.reg }

// Calibrations exposes the calibration namespace the server serves from.
func (s *Server) Calibrations() *planstore.CalibrationStore { return s.cals }

// Prewarm loads persisted plans and calibrations from disk into the store
// LRUs, so the first requests after a boot pay neither the read nor the
// deserialization; cmd/fairserved runs it behind -prewarm. Each walk stops
// at its namespace's LRU capacity — loading more would only evict what was
// just warmed. An unreadable artefact is skipped, not fatal: a prewarm
// boot must not be less available than a cold one, which would also have
// served every healthy artefact and only errored the bad id on demand. It
// returns the number of plans and calibrations warmed and of artefacts
// skipped; err reports only listing failures.
func (s *Server) Prewarm() (plans, cals, skipped int, err error) {
	ids, err := s.store.IDs()
	if err != nil {
		return 0, 0, 0, err
	}
	for _, id := range ids {
		if plans >= s.store.CacheCap() {
			break
		}
		if _, err := s.store.Get(id); err != nil {
			skipped++
			continue
		}
		plans++
	}
	calIDs, err := s.cals.IDs()
	if err != nil {
		return plans, 0, skipped, err
	}
	for _, id := range calIDs {
		if cals >= s.cals.CacheCap() {
			break
		}
		if _, err := s.cals.Get(id); err != nil {
			skipped++
			continue
		}
		cals++
	}
	return plans, cals, skipped, nil
}

// ServeHTTP implements http.Handler. Every request passes through the
// route metrics: latency histogram and a (route, code) counter, with
// deliberate mid-stream aborts (http.ErrAbortHandler) counted and
// re-panicked so net/http still tears the connection down.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeLabel(r)
	rec := &statusRecorder{ResponseWriter: w}
	start := time.Now() //otfair:nondet-ok request-latency histogram timing; never reaches the response body
	defer func() {
		v := recover()
		//otfair:nondet-ok request-latency histogram timing; never reaches the response body
		s.om.requestDone(route, rec.code, time.Since(start), v != nil)
		if v != nil {
			panic(v)
		}
	}()
	s.mux.ServeHTTP(rec, r)
}

// state returns (building if needed) the serving state for a stored plan.
// The bound states are LRU-bounded at MaxBoundPlans, so memory scales with
// the hot set, not with every plan ever touched; the store remains the
// durable tier.
func (s *Server) state(id string) (*planState, error) {
	return getOrBind(&s.mu, s.states, &s.clock, id, s.opts.MaxBoundPlans,
		func(ps *planState) *uint64 { return &ps.lastUsed },
		func() (*planState, error) { return s.bindState(id) })
}

// bindState resolves a stored plan and builds its serving state.
func (s *Server) bindState(id string) (*planState, error) {
	plan, err := s.store.Get(id)
	if err != nil {
		return nil, err
	}
	// The server only streams, and streams repair serially; one worker
	// keeps the unused table fan-out from sizing itself by GOMAXPROCS.
	engine, err := NewEngine(plan, Options{Workers: 1, Fault: s.opts.Fault, Obs: s.om.shard})
	if err != nil {
		return nil, err
	}
	mon, err := monitor.New(plan, s.opts.Monitor)
	if err != nil {
		return nil, err
	}
	ps := &planState{
		id:       id,
		engine:   engine,
		mon:      mon,
		original: newRecordWindow(plan.Dim, s.opts.MetricWindow),
		repaired: newRecordWindow(plan.Dim, s.opts.MetricWindow),
		blind:    make(map[string]*blindEntry),
	}
	if s.opts.DriftWatch != nil {
		// The artefact label value is the store-resolved plan id — never
		// request input — and the watcher set is bounded by MaxBoundPlans,
		// which is what keeps the drift series cardinality bounded.
		cfg := *s.opts.DriftWatch
		if cfg.Logger == nil {
			cfg.Logger = s.opts.Logger
		}
		ps.watch = driftwatch.New(id, cfg, s.om.reg)
	}
	return ps, nil
}

// getOrBind returns m[key], binding it with bind on a miss. Lookup, insert
// and eviction run under mu; bind runs outside it, because binding is the
// expensive part — two racing misses at worst bind twice, and the first
// insert wins. Every successful return touches the entry: *clock advances
// and is stored as the entry's recency through stamp, and an insert evicts
// least-recently-used entries down to limit.
func getOrBind[V any](mu *sync.Mutex, m map[string]V, clock *uint64, key string, limit int, stamp func(V) *uint64, bind func() (V, error)) (V, error) {
	mu.Lock()
	if v, ok := m[key]; ok {
		*clock++
		*stamp(v) = *clock
		mu.Unlock()
		return v, nil
	}
	mu.Unlock()
	v, err := bind()
	if err != nil {
		return v, err
	}
	mu.Lock()
	defer mu.Unlock()
	if prior, ok := m[key]; ok {
		v = prior
	} else {
		m[key] = v
		evictLRU(m, key, limit, stamp)
	}
	*clock++
	*stamp(v) = *clock
	return v, nil
}

// evictLRU deletes least-recently-used entries of m, never keep, until m
// holds at most limit. The victim is a full-scan minimum with a total
// tie-break (recency, then key), so it is a pure function of the map's
// contents, not of its iteration order.
func evictLRU[V any](m map[string]V, keep string, limit int, stamp func(V) *uint64) {
	for len(m) > limit {
		coldID, coldUsed, first := "", uint64(0), true
		//otfair:nondet-ok order-independent min: tie on recency breaks on key
		for id, v := range m {
			if u := *stamp(v); id != keep && (first || u < coldUsed || (u == coldUsed && id < coldID)) {
				coldID, coldUsed, first = id, u, false
			}
		}
		if first {
			return
		}
		delete(m, coldID)
	}
}

// mediaType extracts the request's media type, dropping parameters like
// charset (many clients default to "type; charset=utf-8").
func mediaType(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		return mt
	}
	return ct
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// handleHealth is pure liveness: 200 for as long as the process can
// serve anything at all, draining included (restarting a draining server
// would defeat the drain). Routability belongs to /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	bound := len(s.states)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "bound_plans": bound, "draining": s.draining.Load()})
}

// maxQueryNQ caps the support size a design request may ask for. The
// simplex and Sinkhorn solvers build an nq×nq cost matrix, so an unbounded
// nq lets one request allocate without limit; 4096 states (a 128 MiB cost
// matrix) is 16× the largest support any in-tree caller designs.
const maxQueryNQ = 4096

// designOptionsFromQuery assembles core design options from request query
// parameters (nq, t, amount, solver, kernel, bandwidth, target, barycenter,
// epsilon), leaving absent ones at their library defaults.
func designOptionsFromQuery(r *http.Request) (core.Options, error) {
	var opts core.Options
	q := r.URL.Query()
	var err error
	if v := q.Get("nq"); v != "" {
		if opts.NQ, err = strconv.Atoi(v); err != nil {
			return opts, fmt.Errorf("bad nq %q", v)
		}
		if opts.NQ > maxQueryNQ {
			return opts, fmt.Errorf("nq %d exceeds the limit of %d", opts.NQ, maxQueryNQ)
		}
	}
	if v := q.Get("t"); v != "" {
		if opts.T, err = strconv.ParseFloat(v, 64); err != nil {
			return opts, fmt.Errorf("bad t %q", v)
		}
	}
	if v := q.Get("amount"); v != "" {
		if opts.Amount, err = strconv.ParseFloat(v, 64); err != nil {
			return opts, fmt.Errorf("bad amount %q", v)
		}
		opts.AmountSet = true
	}
	if v := q.Get("epsilon"); v != "" {
		if opts.SinkhornEpsilon, err = strconv.ParseFloat(v, 64); err != nil {
			return opts, fmt.Errorf("bad epsilon %q", v)
		}
	}
	if opts.Solver, err = core.ParseSolver(q.Get("solver")); err != nil {
		return opts, err
	}
	if opts.Target, err = core.ParseTarget(q.Get("target")); err != nil {
		return opts, err
	}
	if opts.Barycenter, err = core.ParseBarycenter(q.Get("barycenter")); err != nil {
		return opts, err
	}
	if opts.Kernel, err = kde.ParseKernel(q.Get("kernel")); err != nil {
		return opts, err
	}
	if opts.Bandwidth, err = kde.ParseBandwidth(q.Get("bandwidth")); err != nil {
		return opts, err
	}
	return opts, nil
}

// handlePlansPost designs a plan from a research CSV body (Content-Type
// text/csv) or registers an uploaded serialized plan (application/json).
// Either way the plan lands in the store and the response carries its
// content fingerprint.
func (s *Server) handlePlansPost(w http.ResponseWriter, r *http.Request) {
	s.limitBody(w, r)
	var (
		plan *core.Plan
		err  error
	)
	switch ct := mediaType(r); {
	case ct == "application/json":
		plan, err = core.ReadPlan(r.Body)
		if err != nil {
			httpError(w, errStatusOr(err, http.StatusBadRequest), "invalid plan upload: %v", err)
			return
		}
	case ct == "text/csv" || ct == "":
		// The query is refused before the body is read.
		opts, oerr := designOptionsFromQuery(r)
		if oerr != nil {
			httpError(w, http.StatusBadRequest, "%v", oerr)
			return
		}
		research, rerr := dataset.ReadResearchColumns(r.Body)
		if rerr != nil {
			httpError(w, errStatusOr(rerr, http.StatusBadRequest), "invalid research csv: %v", rerr)
			return
		}
		plan, err = core.DesignColumns(research, opts)
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, "design failed: %v", err)
			return
		}
	default:
		httpError(w, http.StatusUnsupportedMediaType, "send research data as text/csv or a plan as application/json, got %q", ct)
		return
	}
	id, created, err := s.store.Put(plan)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "storing plan: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":      id,
		"dim":     plan.Dim,
		"names":   plan.Names,
		"nq":      plan.Opts.NQ,
		"solver":  plan.Opts.Solver.String(),
		"existed": !created,
	})
}

func (s *Server) handlePlansList(w http.ResponseWriter, r *http.Request) {
	ids, err := s.store.IDs()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if ids == nil {
		ids = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"plans": ids})
}

func (s *Server) handlePlanGet(w http.ResponseWriter, r *http.Request) {
	plan, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		httpError(w, errStatus(err), "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := plan.WriteJSON(w); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

// handleRepair streams records through the plan's engine: CSV or NDJSON in,
// the same format out. Query parameters:
//
//	plan         plan fingerprint (required unless calibration is given,
//	             which implies its own plan)
//	calibration  calibration fingerprint; switches to blind repair, so the
//	             stream may carry records with no s label
//	method       blind method (hard, draw, mix, pooled; default hard) —
//	             only meaningful with calibration
//	seed         RNG seed (default 1); the output is byte-identical to
//	             the in-process (blind) Repairer at the same seed, on
//	             every host
//	workers      accepted only as 1: every request repairs its records
//	             serially, in order (any other value is a 400)
//	format       csv (default) or ndjson, for both directions
//	deadline_ms  per-request repair budget in milliseconds; overrides the
//	             server-wide default. A blown budget aborts at the
//	             engines' cancellation boundaries: 503 when nothing was
//	             sent, a truncated (aborted) transfer otherwise.
//
// Admission is bounded: past MaxInflight concurrent repairs or
// MaxQueuedBytes of spooled bodies the request is shed with 429 and a
// Retry-After hint, before it costs an engine or the store anything.
// A draining server refuses new repairs with 503.
func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	// Trace the whole request. tw fronts every write so the finalize below
	// can report the status; the finalize itself runs on every exit path —
	// early error, success, and the deliberate mid-stream abort panic —
	// and re-panics so net/http still sees ErrAbortHandler.
	tr := s.om.tracer.Start()
	tw := &statusRecorder{ResponseWriter: w}
	w = tw
	var (
		planID, calID string
		records       int
	)
	defer func() {
		v := recover()
		s.om.finishRepair(tr, planID, calID, records, tw.code, v != nil)
		if v != nil {
			panic(v)
		}
	}()

	tr.Begin(obs.StageAdmission)
	if s.draining.Load() {
		s.refuseDraining(w)
		return
	}
	if !s.gate.tryAcquire() {
		s.shed(w, "concurrent repair budget exhausted")
		return
	}
	defer s.gate.release()

	s.limitBody(w, r)
	q := r.URL.Query()

	// The request context carries the client disconnect; layer the
	// deadline budget (request override, then server default) on top.
	ctx := r.Context()
	budget := s.opts.DefaultDeadline
	if v := q.Get("deadline_ms"); v != "" {
		ms, derr := strconv.ParseInt(v, 10, 64)
		if derr != nil || ms <= 0 {
			httpError(w, http.StatusBadRequest, "bad deadline_ms %q", v)
			return
		}
		budget = time.Duration(ms) * time.Millisecond
	}
	// workers=1 names the one stream path; any other fan-out would promise
	// different bytes, so it is refused rather than silently ignored.
	if v := q.Get("workers"); v != "" && v != "1" {
		httpError(w, http.StatusBadRequest, "bad workers %q: every request repairs serially (omit workers or send workers=1)", v)
		return
	}
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	planID = q.Get("plan")
	calID = q.Get("calibration")
	if planID == "" && calID == "" {
		httpError(w, http.StatusBadRequest, "missing plan parameter")
		return
	}

	// Choose the engine: the plan's labelled engine, or the one bound to
	// the calibration, which repairs unlabelled records under its
	// posterior.
	var (
		ps     *planState
		engine *Engine
		method blind.Method
		err    error
	)
	if calID == "" {
		if ps, err = s.state(planID); err == nil {
			engine = ps.engine
		}
	} else {
		if method, err = blind.ParseMethod(q.Get("method")); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		ps, engine, err = s.blindState(planID, calID)
	}
	if err != nil {
		httpError(w, errStatus(err), "%v", err)
		return
	}

	seed := uint64(1)
	if v := q.Get("seed"); v != "" {
		if seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			httpError(w, http.StatusBadRequest, "bad seed %q", v)
			return
		}
	}

	format := q.Get("format")
	if format == "" {
		if mediaType(r) == "application/x-ndjson" {
			format = "ndjson"
		} else {
			format = "csv"
		}
	}

	tr.End(obs.StageAdmission)

	// Spool the request body before writing any response byte. Go's
	// HTTP/1.1 server tears down the request body on the first response
	// write, and half-duplex clients (curl) deadlock on true bidirectional
	// streams anyway. A body is held in memory up to one chunk, else
	// spooled to disk, so memory stays O(1) in records while the response
	// still streams out as repair progresses.
	tr.Begin(obs.StageSpool)
	spool := newRequestBody()
	defer spool.Close()
	// The spool draws on the server-wide queued-bytes budget for the
	// request's whole lifetime (the bytes occupy memory or disk until the
	// spool closes, not just while they upload).
	reserved, err := s.spoolBody(spool, r.Body)
	defer s.gate.free(reserved)
	if err != nil {
		if errors.Is(err, errShed) {
			s.shed(w, "queued-bytes budget exhausted")
			return
		}
		httpError(w, errStatusOr(err, http.StatusBadRequest), "reading request: %v", err)
		return
	}
	tr.End(obs.StageSpool)

	// tw (created at the top) tracks whether any response byte has left:
	// after that, errors must truncate the stream (at a record boundary —
	// the codec writers buffer whole rows), never append a JSON error into
	// a CSV/NDJSON body.
	var (
		in      dataset.Stream
		closeIn func() error
		out     *lineSink
		openErr error
	)
	switch format {
	case "csv":
		in, closeIn, out, openErr = s.csvPipe(tw, spool, engine.Plan())
	case "ndjson":
		in, closeIn, out, openErr = s.ndjsonPipe(tw, spool, engine.Plan())
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q", format)
		return
	}
	if openErr != nil {
		httpError(w, http.StatusBadRequest, "%v", openErr)
		return
	}
	// The sink's pooled buffer, and the CSV stream's read buffer, go back
	// on every exit, the ErrAbortHandler panics below included.
	defer out.release()
	defer closeIn()

	// One span sink feeds the observability state and encodes. The engine
	// calls it serially from this goroutine with each span's originals and
	// repairs, so ps.mu is taken once per span, and the monitor and both
	// metric windows see exactly the delivered records — a failed request
	// leaves them paired.
	sampled := tr.Sampled()
	sink := func(orig, repaired []dataset.Record) error {
		var start time.Time
		if sampled {
			start = time.Now() //otfair:nondet-ok sampled-trace monitor timing; trace spans never reach repaired records
		}
		ps.observe(orig, repaired, s.opts.MaxAlarms)
		var encStart time.Time
		if sampled {
			encStart = time.Now() //otfair:nondet-ok sampled-trace monitor timing; trace spans never reach repaired records
			tr.Add(obs.StageMonitor, encStart.Sub(start))
		}
		for _, rec := range repaired {
			if err := out.write(rec); err != nil {
				return err
			}
		}
		if sampled {
			//otfair:nondet-ok sampled-trace encode timing; trace spans never reach repaired records
			tr.Add(obs.StageEncode, time.Since(encStart))
		}
		return nil
	}

	// The run wall covers decode, repair and encode interleaved; the
	// sampled decode/encode accumulators are backed out so shard_execute
	// reports engine time, the monitor tap included (the monitor stage
	// reports that share again). Unsampled requests report the whole wall
	// there.
	runStart := time.Now() //otfair:nondet-ok trace stage wall-clock accounting; trace spans never reach repaired records
	n, _, _, err := engine.RepairStreamContext(ctx, rng.New(seed), method, &validStream{inner: in, tr: tr}, sink)
	records = n
	//otfair:nondet-ok trace stage wall-clock accounting; trace spans never reach repaired records
	tr.Set(obs.StageShardExecute, time.Since(runStart)-tr.Get(obs.StageDecode)-tr.Get(obs.StageEncode))
	// Feed the drift state machine once per request (not per record): the
	// monitor's window statistics barely move within one stream, and a
	// per-request cadence is what AlarmAfter consecutive alarming updates
	// counts. Runs for failed repairs too — the records already observed
	// are real traffic evidence.
	if ps.watch != nil && n > 0 {
		s.driftCheck(ps)
	}
	if err != nil {
		s.noteFailure(ctx, err)
		if tw.code == 0 {
			// Nothing sent yet: the client gets a clean, typed JSON error —
			// 503 for a blown deadline, 500 for a worker panic or a corrupt
			// artefact, 422 for a bad stream (e.g. dimension mismatch, bad
			// first record). A vanished client gets the aborted connection
			// it can no longer observe.
			if errors.Is(err, context.Canceled) {
				panic(http.ErrAbortHandler)
			}
			httpError(w, errStatusOr(err, http.StatusUnprocessableEntity), "repair failed after %d records: %v", n, err)
			return
		}
		// Mid-stream: abort the connection so the client observes a failed
		// transfer (no terminating chunk) instead of a complete-looking 200
		// with silently missing records. ErrAbortHandler is net/http's
		// sanctioned way to do exactly this. Deadline and disconnect land
		// here too: cancellation truncates the stream at an engine
		// boundary, and the abort is what makes the truncation loud.
		panic(http.ErrAbortHandler)
	}
	tr.Begin(obs.StageFlush)
	if err := out.finish(); err != nil {
		return
	}
	tr.End(obs.StageFlush)
}

// spoolBufs recycles the spoolChunk-byte first-chunk buffers of request
// bodies. A request holds one from newRequestBody to Close, so the memory
// they take is bounded by the concurrent repairs times one chunk.
var spoolBufs = sync.Pool{New: func() any {
	buf := make([]byte, spoolChunk)
	return &buf
}}

// requestBody is a spooled repair request body, read back from its start:
// from a pooled buffer when the body ends within the first chunk, from an
// unlinked bodySpool file otherwise (see Server.spoolBody).
type requestBody struct {
	buf  *[]byte
	mem  bytes.Reader
	file *bodySpool
}

func newRequestBody() *requestBody {
	return &requestBody{buf: spoolBufs.Get().(*[]byte)}
}

func (b *requestBody) Read(p []byte) (int, error) {
	if b.file != nil {
		return b.file.Read(p)
	}
	return b.mem.Read(p)
}

// Close closes the spool file, if there is one, and returns the buffer to
// the pool: nothing may read the body after it.
func (b *requestBody) Close() error {
	var err error
	if b.file != nil {
		err = b.file.Close()
		b.file = nil
	}
	b.mem.Reset(nil)
	if b.buf != nil {
		spoolBufs.Put(b.buf)
		b.buf = nil
	}
	return err
}

// bodySpool is a request-body spool file whose directory entry is unlinked
// the moment it is created: the open descriptor keeps the spooled bytes
// readable for the duration of the request, while no failure mode — a
// mid-copy read error, an early handler return, a panicking handler, even
// a killed process — can leave the file behind on disk. On platforms that
// cannot unlink an open file, Close removes it instead (covering every
// in-process exit path; only a hard kill can then leak, as before).
type bodySpool struct {
	*os.File
	unlinked bool
}

// newBodySpool creates an anonymous spool file in the temp directory.
func newBodySpool() (*bodySpool, error) {
	f, err := os.CreateTemp("", "fairserved-repair-*")
	if err != nil {
		return nil, err
	}
	sp := &bodySpool{File: f}
	if err := os.Remove(f.Name()); err == nil {
		sp.unlinked = true
	}
	return sp, nil
}

func (sp *bodySpool) Close() error {
	err := sp.File.Close()
	if !sp.unlinked {
		if rerr := os.Remove(sp.Name()); rerr != nil && !errors.Is(rerr, os.ErrNotExist) && err == nil {
			err = rerr
		}
	}
	return err
}

// validStream forwards Next, validating each record — the wire codecs
// parse shape but not label ranges or feature finiteness — so a malformed
// record fails the request loudly instead of repairing garbage, and the
// monitor and metric windows only ever see valid records. On
// trace-sampled requests it accumulates the per-record decode time (tr is
// nil-safe; Next is called serially from the request goroutine).
type validStream struct {
	inner dataset.Stream
	tr    *obs.Trace
}

func (v *validStream) Next() (dataset.Record, error) {
	var start time.Time
	sampled := v.tr.Sampled()
	if sampled {
		start = time.Now() //otfair:nondet-ok sampled-trace decode timing; trace spans never reach repaired records
	}
	rec, err := v.inner.Next()
	if sampled {
		//otfair:nondet-ok sampled-trace decode timing; trace spans never reach repaired records
		v.tr.Add(obs.StageDecode, time.Since(start))
	}
	if err != nil {
		return rec, err
	}
	if err := rec.Validate(v.inner.Dim()); err != nil {
		return dataset.Record{}, err
	}
	return rec, nil
}

func (v *validStream) Dim() int { return v.inner.Dim() }

// handleMetrics reports serving state as JSON. The server-wide sections —
// resilience counters, store stats, design cache, and the observability
// section (histogram summaries, slow-request records) — are always
// present. With ?plan= it adds that plan's engine counters, drift monitor
// status with recent alarms, the E metric before/after on the rolling
// windows, and per-calibration blind telemetry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	designHits, designMisses := core.DesignCacheStats()
	out := map[string]any{
		"resilience":        s.resilienceSnapshot(),
		"store":             s.store.Stats(),
		"calibration_store": s.cals.Stats(),
		"design_cache": map[string]uint64{
			"hits":   designHits,
			"misses": designMisses,
		},
		"observability": s.om.observability(),
	}

	id := r.URL.Query().Get("plan")
	if id == "" {
		writeJSON(w, http.StatusOK, out)
		return
	}
	ps, err := s.state(id)
	if err != nil {
		httpError(w, errStatus(err), "%v", err)
		return
	}
	totals := ps.engine.Totals()

	ps.mu.Lock()
	snap := ps.mon.Snapshot()
	recent := make([]string, len(ps.alarms))
	for i, a := range ps.alarms {
		recent[i] = a.String()
	}
	alarmsTotal := ps.alarmsTotal
	origTable := ps.original.table()
	repTable := ps.repaired.table()
	ps.mu.Unlock()

	metric := map[string]any{"window": s.opts.MetricWindow}
	// E is undefined until every observed u-population carries both
	// s-classes; report what is computable and say why otherwise.
	if origTable != nil {
		if e, err := fairmetrics.E(origTable, s.opts.Metric); err == nil {
			metric["e_original"] = e
		} else {
			metric["e_original_error"] = err.Error()
		}
		metric["window_filled"] = origTable.Len()
	} else {
		metric["window_filled"] = 0
	}
	if repTable != nil {
		if e, err := fairmetrics.E(repTable, s.opts.Metric); err == nil {
			metric["e_repaired"] = e
		} else {
			metric["e_repaired_error"] = err.Error()
		}
	}

	out["plan"] = id
	out["engine"] = map[string]any{
		"records":             totals.Records,
		"values":              totals.Values,
		"clamped":             totals.Clamped,
		"empty_row_fallbacks": totals.EmptyRowFallbacks,
	}
	out["drift"] = map[string]any{
		"seen":          snap.Seen,
		"fired":         snap.Fired,
		"watched_cells": snap.WatchedCells,
		"full_windows":  snap.FullWindows,
		"alarms_total":  alarmsTotal,
		"recent":        recent,
	}
	out["metric"] = metric
	out["blind"] = blindMetrics(ps)
	if ps.watch != nil {
		out["driftwatch"] = ps.watch.Snapshot()
	}
	writeJSON(w, http.StatusOK, out)
}
