// Command fairserved serves archival data repair over HTTP: the deployment
// half of the paper's design/apply split as a long-running service. Plans
// are designed once (POST /v1/plans with research CSV, or uploaded as
// serialized JSON), persisted in a disk-backed content-addressed store, and
// then applied to arbitrarily many archival records (POST /v1/repair,
// streaming CSV or NDJSON both ways) with per-plan drift monitoring and
// fairness metrics (GET /v1/metrics).
//
//	fairserved -addr :8080 -store ./plans
//
//	# design a plan from research data
//	curl -s -X POST --data-binary @research.csv -H 'Content-Type: text/csv' \
//	    'localhost:8080/v1/plans?nq=50'
//	# repair an archival torrent with it
//	curl -s -X POST --data-binary @archive.csv \
//	    'localhost:8080/v1/repair?plan=<id>&seed=1' > repaired.csv
//	# fit a blind calibration, then repair a torrent with no s labels
//	curl -s -X POST --data-binary @research.csv -H 'Content-Type: text/csv' \
//	    'localhost:8080/v1/calibrations?plan=<id>'
//	curl -s -X POST --data-binary @unlabelled.csv \
//	    'localhost:8080/v1/repair?calibration=<calid>&method=draw&seed=1'
//	# watch fairness + drift (incl. per-calibration posterior telemetry)
//	curl -s 'localhost:8080/v1/metrics?plan=<id>'
//	# scrape Prometheus metrics / check what build is running
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/v1/buildinfo
//
// Observability: structured request logs go to stderr (slog text, -log-json
// for JSON) with request IDs correlating log lines, the /v1/metrics slow
// ring (-slow-request threshold) and trace stage spans (-trace-sample for
// per-record decode/encode timing). -pprof-addr serves net/http/pprof on a
// separate listener so profiling never rides the serving port.
//
// Every /v1/repair request repairs its records serially, in order, so the
// repaired bytes are identical to what the in-process library produces at
// the same seed on every host: a service deployment is a drop-in
// replacement for embedded repair.
//
// -smoke runs the self-contained smoke test used by `make serve-smoke`:
// boot the server on an ephemeral port, design on synthetic research data,
// repair a synthetic archive through the full HTTP round trip, and verify
// both the serve-path byte-equivalence and that the E metric dropped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"otfair/internal/driftwatch"
	"otfair/internal/planstore"
	"otfair/internal/repairsvc"
	"otfair/internal/researchfeed"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	storeDir := flag.String("store", "plans", "artefact store directory (plans at the root, calibrations under calibrations/)")
	window := flag.Int("window", 2048, "rolling metric window (records per plan)")
	cache := flag.Int("cache", 64, "in-memory artefact cache size (plans and calibrations each)")
	prewarm := flag.Bool("prewarm", false, "load stored plans and calibrations into the memory tier at boot (up to -cache entries each)")
	prune := flag.Duration("prune", 0, "delete stored artefacts older than this age at boot (0 = keep everything)")
	maxInflight := flag.Int("max-inflight", 64, "concurrent repair requests admitted before shedding with 429 (-1 = unlimited)")
	maxQueuedBytes := flag.Int64("max-queued-bytes", 4<<30, "total spooled request-body bytes admitted before shedding with 429 (-1 = unlimited)")
	deadline := flag.Duration("deadline", 0, "server-wide per-request repair budget (0 = none; requests may set ?deadline_ms=)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
	readTimeout := flag.Duration("read-timeout", 0, "http.Server ReadTimeout (0 = none; bounds the whole request read, so leave 0 for large archival uploads unless fronted by a buffer)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long in-flight repairs may run after SIGTERM before the server exits anyway")
	drainGrace := flag.Duration("drain-grace", 2*time.Second, "how long to keep answering (503 for repairs, unready /readyz) after SIGTERM before closing the listener, so orchestrators see the readiness flip (0 = close immediately)")
	slowRequest := flag.Duration("slow-request", 0, "repair requests at or past this total duration are counted slow, kept in the /v1/metrics slow ring and logged at Warn (0 = off)")
	traceSample := flag.Uint64("trace-sample", 0, "record per-record decode/encode span timing on every Nth repair request (1 = all, 0 = never); coarse stage spans are always traced")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = off); keep it off public interfaces")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	driftWatch := flag.Bool("drift-watch", false, "arm the drift observability loop: per-plan drift state machine, Prometheus drift series, and (with -recalibrate-from) automatic refit + canary + atomic ref swap on alarm")
	recalibrateFrom := flag.String("recalibrate-from", "", "fresh research CSV the drift loop refits plans from (empty = alarms export but recalibration finishes refit_failed)")
	driftAlarmAfter := flag.Int("drift-alarm-after", 0, "consecutive alarming drift checks before a plan alarms (0 = default 3)")
	driftQuietAfter := flag.Int("drift-quiet-after", 0, "records observed after a swap or rollback before the watcher re-arms (0 = default 2048)")
	canaryReservoir := flag.Int("canary-reservoir", 0, "labelled records reservoir-sampled for the canary shadow comparison (0 = default 512)")
	canaryMaxERise := flag.Float64("canary-max-e-rise", 0, "largest fairness (E) regression the canary accepts before rolling back (default 0: the refit must not be less fair)")
	canaryMaxDamageRise := flag.Float64("canary-max-damage-rise", 0, "largest per-record damage increase the canary accepts before rolling back (0 = default 0.25)")
	driftCheckEvery := flag.Duration("drift-check-every", 0, "timer-driven drift check cadence so idle-but-drifted plans still recalibrate (0 = checks only ride repair traffic)")
	recalibrateURL := flag.String("recalibrate-url", "", "HTTP research feed the drift loop refits from (ETag change detection, per-attempt timeouts; takes precedence over -recalibrate-from)")
	researchToken := flag.String("research-token", "", "bearer token enabling the authenticated POST /v1/research staging endpoint; with no URL or file feed configured, staged sets become the refit source")
	feedMinRecords := flag.Int("feed-min-records", 0, "minimum records a fetched research set needs before it may refit a plan (0 = default 16, negative = no floor)")
	feedRetries := flag.Int("feed-retries", 0, "fetch attempts per refit before the feed counts as down (0 = default 3)")
	feedBackoff := flag.Duration("feed-backoff", 0, "base retry backoff, doubled per retry with deterministic seeded jitter (0 = default 200ms)")
	feedBackoffMax := flag.Duration("feed-backoff-max", 0, "retry backoff cap (0 = default 30s)")
	feedBreakerAfter := flag.Int("feed-breaker-after", 0, "consecutive failed fetch cycles before the feed circuit breaker opens (0 = default 3)")
	feedBreakerOpen := flag.Duration("feed-breaker-open", 0, "how long an open feed breaker refuses fetches before a half-open probe (0 = default 30s)")
	feedTimeout := flag.Duration("feed-timeout", 0, "per-attempt HTTP feed timeout (0 = default 10s)")
	refitWorkers := flag.Int("refit-workers", 0, "shared refit worker budget across all plan lineages (0 = default 1)")
	refitQueue := flag.Int("refit-queue", 0, "bounded refit queue depth; an alarm past it lands refit_failed (0 = default 4)")
	smoke := flag.Bool("smoke", false, "run the self-contained smoke test and exit")
	flag.Parse()

	// Structured logging throughout: every line carries component, errors
	// carry error, and repair request lines (from the server's request log)
	// carry request_id and the artefact fingerprint they ran against.
	var lh slog.Handler
	if *logJSON {
		lh = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		lh = slog.NewTextHandler(os.Stderr, nil)
	}
	base := slog.New(lh)
	logger := base.With(slog.String("component", "fairserved"))
	fatal := func(msg string, err error) {
		logger.Error(msg, slog.Any("error", err))
		os.Exit(1)
	}

	if *smoke {
		if err := runSmoke(); err != nil {
			fatal("SMOKE FAILED", err)
		}
		fmt.Println("fairserved: smoke test passed")
		return
	}

	store, err := planstore.Open(*storeDir, planstore.Options{CacheSize: *cache, Logger: base})
	if err != nil {
		fatal("opening store", err)
	}
	serverOpts := repairsvc.ServerOptions{
		MetricWindow:         *window,
		CalibrationCacheSize: *cache,
		MaxInflight:          *maxInflight,
		MaxQueuedBytes:       *maxQueuedBytes,
		DefaultDeadline:      *deadline,
		SlowRequest:          *slowRequest,
		TraceSample:          *traceSample,
		Logger:               base,
	}
	// Staging is independent of the drift loop: a deployment may accept
	// research sets now and arm -drift-watch later against the same store.
	serverOpts.ResearchToken = *researchToken
	serverOpts.FeedMinRecords = *feedMinRecords
	if *driftWatch {
		serverOpts.DriftWatch = &driftwatch.Config{
			AlarmAfter:    *driftAlarmAfter,
			QuietAfter:    *driftQuietAfter,
			ReservoirSize: *canaryReservoir,
			MaxERise:      *canaryMaxERise,
			MaxDamageRise: *canaryMaxDamageRise,
		}
		serverOpts.RecalibrateFrom = *recalibrateFrom
		serverOpts.RecalibrateURL = *recalibrateURL
		serverOpts.DriftCheckEvery = *driftCheckEvery
		serverOpts.FeedRetry = researchfeed.RetryPolicy{
			Attempts: *feedRetries,
			Base:     *feedBackoff,
			Max:      *feedBackoffMax,
		}
		serverOpts.FeedBreaker = researchfeed.BreakerConfig{
			Threshold: *feedBreakerAfter,
			OpenFor:   *feedBreakerOpen,
		}
		serverOpts.FeedAttemptTimeout = *feedTimeout
		serverOpts.RefitWorkers = *refitWorkers
		serverOpts.RefitQueue = *refitQueue
	}
	handler, err := repairsvc.NewServer(store, serverOpts)
	if err != nil {
		fatal("building server", err)
	}
	if *prune > 0 {
		removed, err := store.Prune(*prune)
		if err != nil {
			fatal("pruning plans", err)
		}
		calsRemoved, err := handler.Calibrations().Prune(*prune)
		if err != nil {
			fatal("pruning calibrations", err)
		}
		logger.Info("pruned stale artefacts",
			slog.Int("plans", removed), slog.Int("calibrations", calsRemoved),
			slog.Duration("older_than", *prune))
	}
	if *prewarm {
		plans, cals, skipped, err := handler.Prewarm()
		if err != nil {
			fatal("prewarm", err)
		}
		if skipped > 0 {
			logger.Warn("prewarm skipped unreadable artefacts", slog.Int("skipped", skipped))
		}
		logger.Info("prewarmed artefacts", slog.Int("plans", plans), slog.Int("calibrations", cals))
	}

	// Opt-in pprof on its own listener: profiling never shares the serving
	// port, so exposure is an explicit deployment decision and the serving
	// mux carries no debug surface.
	if *pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal("pprof listener", err)
		}
		logger.Info("pprof listening", slog.String("addr", pln.Addr().String()))
		go func() {
			if err := http.Serve(pln, pm); err != nil {
				logger.Error("pprof server stopped", slog.Any("error", err))
			}
		}()
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}

	// Graceful shutdown: on SIGINT/SIGTERM flip readiness and refuse new
	// repairs (BeginDrain), drain in-flight work for up to -drain-timeout,
	// then exit regardless — a stuck request must not pin the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listening", err)
	}
	revision := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				revision = kv.Value
			}
		}
	}
	logger.Info("listening",
		slog.String("addr", ln.Addr().String()), slog.String("store", *storeDir),
		slog.String("go", runtime.Version()), slog.String("revision", revision))
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("serve", err)
		}
	case <-ctx.Done():
		logger.Info("draining", slog.Duration("grace", *drainGrace), slog.Duration("timeout", *drainTimeout))
		handler.BeginDrain()
		// Shutdown closes the listener immediately, so without this grace
		// window new connections would see a TCP refusal instead of the
		// typed 503 + failing /readyz that tells an orchestrator to stop
		// routing here. Keep the listener up until readiness has had a
		// chance to propagate, then stop accepting and drain.
		if *drainGrace > 0 {
			time.Sleep(*drainGrace)
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("shutdown exiting with requests in flight", slog.Any("error", err))
		}
		// Stop the drift timer and refit workers after HTTP drains: an
		// in-flight refit's fetch or backoff sleep aborts here rather
		// than pinning the process.
		handler.Close()
	}
}
