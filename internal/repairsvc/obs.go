package repairsvc

// The observability assembly of the HTTP front end: one obs.Registry
// holding every Prometheus family the server exports, one obs.Tracer
// generating request IDs and per-stage span slabs for the repair path, and
// the slog request log. Everything here is bound once in NewServer;
// per-request work is histogram observes and counter adds (plus one
// request-ID allocation per trace), and per-record work is exactly the
// nil-checks the engines and codecs were instrumented with.

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"otfair/internal/blind"
	"otfair/internal/core"
	"otfair/internal/obs"
	"otfair/internal/planstore"
	"otfair/internal/shardrun"
)

// serverObs is the server's bound instrumentation: the registry, the
// tracer, the request logger, and every preresolved instrument the hot
// handlers touch.
type serverObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	log    *slog.Logger

	// Per-route request latency histograms, preresolved so the middleware
	// never hits the registry mutex for a known route.
	routeSeconds map[string]*obs.Histogram
	// Repair-path instruments.
	stageSeconds  [obs.NumStages]*obs.Histogram
	recordsTotal  *obs.Counter
	recordsPerReq *obs.Histogram
	aborted       *obs.Counter
	// shard is handed to every engine the server binds (both labelled and
	// blind share it: the runner is one subsystem).
	shard *shardrun.Obs
}

// routes is the fixed route-label set; unknown paths collapse to "other"
// so request-supplied paths can never mint new series.
var routes = []string{
	"healthz", "readyz", "buildinfo", "plans", "plan_get",
	"calibrations", "calibration_get", "repair", "research", "refs", "metrics", "metrics_prom", "other",
}

// routeLabel maps a request to its route label without touching r.Pattern
// (unset on the outer request) or allocating.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch p {
	case "/healthz":
		return "healthz"
	case "/readyz":
		return "readyz"
	case "/v1/buildinfo":
		return "buildinfo"
	case "/v1/plans":
		return "plans"
	case "/v1/calibrations":
		return "calibrations"
	case "/v1/repair":
		return "repair"
	case "/v1/research":
		return "research"
	case "/v1/refs":
		return "refs"
	case "/v1/metrics":
		return "metrics"
	case "/metrics":
		return "metrics_prom"
	}
	switch {
	case strings.HasPrefix(p, "/v1/plans/"):
		return "plan_get"
	case strings.HasPrefix(p, "/v1/calibrations/"):
		return "calibration_get"
	}
	return "other"
}

// newServerObs assembles the registry: the handler-side instruments, the
// engine/runner hook set, the store read-latency bindings, and the
// func-backed exports of the pre-existing cumulative state (resilience
// counters, store stats, gate occupancy) that must not be counted twice.
func newServerObs(s *Server) *serverObs {
	reg := s.opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logger := s.opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	om := &serverObs{
		reg: reg,
		tracer: obs.NewTracer(obs.TracerOptions{
			SlowThreshold: s.opts.SlowRequest,
			SampleEvery:   s.opts.TraceSample,
		}),
		log:          logger,
		routeSeconds: make(map[string]*obs.Histogram, len(routes)),
	}

	lat := obs.DefLatencyBuckets()
	for _, route := range routes {
		om.routeSeconds[route] = reg.HistogramL("otfair_http_request_seconds",
			"HTTP request latency by route.", lat, "route", route)
	}
	for i, name := range obs.StageNames() {
		om.stageSeconds[i] = reg.HistogramL("otfair_repair_stage_seconds",
			"Repair request time by stage (decode/encode only on trace-sampled requests).",
			//otfair:cardinality-ok StageNames is obs's fixed compile-time stage list
			lat, "stage", name)
	}
	om.recordsTotal = reg.Counter("otfair_repair_records_total",
		"Records emitted by the repair endpoint across all plans.")
	om.recordsPerReq = reg.Histogram("otfair_repair_request_records",
		"Records per repair request.", obs.DefSizeBuckets())
	om.aborted = reg.Counter("otfair_http_aborted_total",
		"Responses aborted mid-stream (connection torn down on purpose).")

	om.shard = &shardrun.Obs{
		ShardSeconds: reg.Histogram("otfair_shard_seconds",
			"Wall time of each shard closure in the runner.", lat),
		Shards: reg.Counter("otfair_shards_total", "Shard closures run."),
		Panics: reg.Counter("otfair_shard_panics_total", "Shard closures that panicked."),
	}

	// Store read latencies, one series per namespace.
	s.store.SetReadLatency(reg.HistogramL("otfair_store_read_seconds",
		"Artefact disk-read latency (memory misses; retries included).", lat, "store", "plan"))
	s.cals.SetReadLatency(reg.HistogramL("otfair_store_read_seconds",
		"Artefact disk-read latency (memory misses; retries included).", lat, "store", "calibration"))
	s.research.SetReadLatency(reg.HistogramL("otfair_store_read_seconds",
		"Artefact disk-read latency (memory misses; retries included).", lat, "store", "research"))

	// Shared refit budget backlog. Reads the pool at scrape time; the
	// pool is bound once in NewServer before any scrape can happen, and a
	// drift-disabled server reports a truthful zero.
	reg.GaugeFunc("otfair_refit_queue_depth",
		"Refit jobs waiting in the shared recalibration queue.",
		func() float64 { return float64(s.refit.depth()) })

	// Func-backed exports of cumulative state owned elsewhere. Reading at
	// scrape time is what keeps these single-sourced: the JSON endpoint and
	// the exposition always agree.
	for _, ns := range []struct {
		label string
		stats func() planstore.Stats
	}{
		{"plan", s.store.Stats},
		{"calibration", s.cals.Stats},
		{"research", s.research.Stats},
	} {
		st := ns.stats
		for _, op := range []struct {
			op string
			fn func(planstore.Stats) uint64
		}{
			{"mem_hit", func(v planstore.Stats) uint64 { return v.MemHits }},
			{"disk_hit", func(v planstore.Stats) uint64 { return v.DiskHits }},
			{"miss", func(v planstore.Stats) uint64 { return v.Misses }},
			{"put", func(v planstore.Stats) uint64 { return v.Puts }},
			{"dup_put", func(v planstore.Stats) uint64 { return v.DupPuts }},
			{"eviction", func(v planstore.Stats) uint64 { return v.Evictions }},
			{"read_retry", func(v planstore.Stats) uint64 { return v.ReadRetries }},
			{"quarantined", func(v planstore.Stats) uint64 { return v.Quarantined }},
		} {
			fn := op.fn
			reg.CounterFunc("otfair_store_ops_total", "Artefact store operations by namespace and op.",
				func() float64 { return float64(fn(st())) }, "store", ns.label, "op", op.op)
		}
	}

	// Artefact freshness, sampled at scrape time from the stores' file
	// mtimes — the fleet-level "is anything recalibrating?" signal that
	// pairs with the drift series: a swapped recalibration moves this
	// toward zero.
	for _, ns := range []struct {
		kind   string
		newest func() (time.Time, error)
	}{
		{"plan", s.store.NewestMTime},
		{"calibration", s.cals.NewestMTime},
		{"research", s.research.NewestMTime},
	} {
		newest := ns.newest
		reg.GaugeFunc("otfair_artefact_age_seconds",
			"Age of the youngest stored artefact per namespace (NaN while the namespace is empty).",
			func() float64 {
				mt, err := newest()
				if err != nil || mt.IsZero() {
					return math.NaN()
				}
				//otfair:nondet-ok scrape-time age gauge; never reaches a served repair byte
				return time.Since(mt).Seconds()
			}, "kind", ns.kind)
	}

	// Blind telemetry, aggregated across every bound calibrated engine at
	// scrape time. Aggregation is what bounds the cardinality: the series
	// carry no calibration label, so an unbounded calibration population
	// cannot mint series. Evicting a cold calibrated engine drops its
	// contribution (the serving state is not the durable tier); rate()
	// users should treat resets like restarts.
	reg.GaugeFunc("otfair_blind_mean_confidence",
		"Mean MAP-posterior confidence over imputed records, all bound calibrations (NaN before any imputation).",
		func() float64 {
			a := s.blindAggregate()
			if a.Imputed == 0 {
				return math.NaN()
			}
			return a.ConfidenceSum / float64(a.Imputed)
		})
	reg.GaugeFunc("otfair_blind_confidence_drift",
		"Imputation-weighted drift of serving-time posterior confidence from the research baseline (NaN before any imputation).",
		func() float64 {
			a := s.blindAggregate()
			if a.Imputed == 0 {
				return math.NaN()
			}
			return (a.ConfidenceSum - a.BaseSum) / float64(a.Imputed)
		})
	reg.CounterFunc("otfair_blind_imputed_total",
		"Records repaired under the posterior (s label imputed), all bound calibrations.",
		func() float64 { return float64(s.blindAggregate().Imputed) })
	reg.CounterFunc("otfair_blind_labels_used_total",
		"Blind-endpoint records that arrived with an observed s label, all bound calibrations.",
		func() float64 { return float64(s.blindAggregate().LabelsUsed) })
	for i := 0; i < blind.AmbiguityBinCount; i++ {
		i := i
		reg.CounterFunc("otfair_blind_ambiguity_total",
			"Imputed records by posterior-ambiguity bin (bin 0 = most confident, highest bin = coin-flip).",
			func() float64 { return float64(s.blindAggregate().Bins[i]) }, "bin", strconv.Itoa(i))
	}

	reg.CounterFunc("otfair_shed_total", "Requests refused by the admission gate.",
		func() float64 { return float64(s.res.Shed.Load()) })
	reg.CounterFunc("otfair_deadline_exceeded_total", "Repairs aborted by the per-request budget.",
		func() float64 { return float64(s.res.DeadlineExceeded.Load()) })
	reg.CounterFunc("otfair_disconnects_total", "Repairs aborted by client disconnect.",
		func() float64 { return float64(s.res.Disconnects.Load()) })
	reg.CounterFunc("otfair_worker_panics_total", "Worker panics converted to per-request errors.",
		func() float64 { return float64(s.res.Panics.Load()) })
	reg.CounterFunc("otfair_slow_requests_total", "Repair requests at or past the slow threshold.",
		func() float64 { return float64(om.tracer.SlowTotal()) })
	reg.GaugeFunc("otfair_inflight_requests", "Admitted repair requests in flight.",
		func() float64 { in, _ := s.gate.snapshot(); return float64(in) })
	reg.GaugeFunc("otfair_queued_bytes", "Spooled request-body bytes occupying the queue budget.",
		func() float64 { _, qb := s.gate.snapshot(); return float64(qb) })
	reg.GaugeFunc("otfair_bound_plans", "Plan serving states held in memory.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(len(s.states)) })
	reg.GaugeFunc("otfair_draining", "1 while the server is draining.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	reg.CounterFunc("otfair_design_cache_hits_total", "In-memory design-cell cache hits (core.DesignCacheStats).",
		func() float64 { h, _ := core.DesignCacheStats(); return float64(h) })
	reg.CounterFunc("otfair_design_cache_misses_total", "In-memory design-cell cache misses (core.DesignCacheStats).",
		func() float64 { _, m := core.DesignCacheStats(); return float64(m) })

	version, goVersion, revision := buildInfo()
	reg.GaugeFunc("otfair_build_info", "Build metadata; value is always 1.",
		func() float64 { return 1 },
		//otfair:cardinality-ok build identity is constant for the process lifetime: one series per binary
		"version", version, "go", goVersion, "revision", revision)

	return om
}

// blindAgg is the scrape-time fold of every bound calibrated engine's
// counters.
type blindAgg struct {
	LabelsUsed, Imputed int64
	// ConfidenceSum accumulates max(γ, 1−γ) over imputed records; BaseSum
	// accumulates Imputed × research-time baseline confidence, so
	// (ConfidenceSum − BaseSum) / Imputed is the imputation-weighted drift.
	ConfidenceSum, BaseSum float64
	Bins                   [blind.AmbiguityBinCount]int64
}

// blindAggregate folds the blind telemetry of every bound plan state. Lock
// order is Server.mu then planState.mu, the same order every handler uses,
// and engine counters are read outside both locks.
func (s *Server) blindAggregate() blindAgg {
	var a blindAgg
	s.mu.Lock()
	states := make([]*planState, 0, len(s.states))
	//otfair:nondet-ok scrape-time commutative fold: every state's counters are summed
	for _, ps := range s.states {
		states = append(states, ps)
	}
	s.mu.Unlock()
	for _, ps := range states {
		_, engines := ps.calibrated()
		for _, eng := range engines {
			t := eng.Totals()
			a.LabelsUsed += t.LabelsUsed
			a.Imputed += t.Imputed
			a.ConfidenceSum += t.ConfidenceSum
			a.BaseSum += float64(t.Imputed) * eng.Calibration().ResearchConfidence()
			for i, v := range t.AmbiguityBins {
				a.Bins[i] += v
			}
		}
	}
	return a
}

// buildInfo extracts version/go/revision from the embedded build info,
// with honest placeholders when built outside a module or VCS checkout.
func buildInfo() (version, goVersion, revision string) {
	version, goVersion, revision = "unknown", runtime.Version(), "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		version = bi.Main.Version
	} else if bi.Main.Version == "(devel)" {
		version = "devel"
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			revision = kv.Value
		}
	}
	return
}

// requestDone records one finished HTTP request in the route metrics.
func (om *serverObs) requestDone(route string, code int, d time.Duration, aborted bool) {
	if code == 0 {
		code = http.StatusOK
	}
	om.routeSeconds[route].ObserveDuration(d)
	om.reg.CounterL("otfair_http_requests_total", "HTTP requests by route and status code.",
		//otfair:cardinality-ok route comes from routeLabel's fixed set and code from the server's chosen statuses
		"route", route, "code", strconv.Itoa(code)).Inc()
	if aborted {
		om.aborted.Inc()
	}
}

// finishRepair completes a repair request's trace: per-stage histograms,
// records accounting, the slow ring, and the structured request log line.
// The detail string is only composed when something will read it (slow
// ring or log), keeping the happy path to histogram observes.
func (om *serverObs) finishRepair(tr *obs.Trace, plan, cal string, records, status int, aborted bool) {
	artefact := plan
	if cal != "" {
		artefact = cal
	}
	detail := fmt.Sprintf("plan=%s calibration=%s records=%d status=%d aborted=%t", plan, cal, records, status, aborted)
	res := om.tracer.Finish(tr, detail)
	for st, d := range res.Stages {
		if d > 0 {
			om.stageSeconds[st].ObserveDuration(d)
		}
	}
	if records > 0 {
		om.recordsTotal.Add(uint64(records))
		om.recordsPerReq.Observe(float64(records))
	}
	lvl := slog.LevelInfo
	if res.Slow {
		lvl = slog.LevelWarn
	}
	om.log.LogAttrs(context.Background(), lvl, "repair request",
		slog.String("component", "repairsvc"),
		slog.String("request_id", res.ID),
		slog.String("artefact", artefact),
		slog.String("plan", plan),
		slog.String("calibration", cal),
		slog.Int("records", records),
		slog.Int("status", status),
		slog.Bool("aborted", aborted),
		slog.Bool("slow", res.Slow),
		slog.Duration("total", res.Total),
		slog.Duration("spool", res.Stages[obs.StageSpool]),
		slog.Duration("shard_execute", res.Stages[obs.StageShardExecute]),
	)
}

// histSummary renders a histogram for the JSON metrics endpoint: count,
// mean and the standard latency quantiles, estimated by bucket
// interpolation (the same estimate histogram_quantile would give a
// Prometheus server scraping /metrics).
func histSummary(h *obs.Histogram) map[string]any {
	s := h.Snapshot()
	return map[string]any{
		"count": s.Count,
		"mean":  s.Mean(),
		"p50":   s.Quantile(0.50),
		"p95":   s.Quantile(0.95),
		"p99":   s.Quantile(0.99),
	}
}

// observability assembles the /v1/metrics "observability" section:
// histogram summaries for the request/stage/shard latencies and the
// trace-sampled slow-request records.
func (om *serverObs) observability() map[string]any {
	stages := make(map[string]any, obs.NumStages)
	for i, name := range obs.StageNames() {
		stages[name] = histSummary(om.stageSeconds[i])
	}
	slow := om.tracer.Slow()
	slowOut := make([]map[string]any, len(slow))
	for i, sr := range slow {
		stageDur := make(map[string]string, obs.NumStages)
		for st, d := range sr.Stages {
			if d > 0 {
				stageDur[obs.Stage(st).String()] = d.String()
			}
		}
		slowOut[i] = map[string]any{
			"request_id": sr.ID,
			"at":         sr.At.UTC().Format(time.RFC3339Nano),
			"total":      sr.Total.String(),
			"stages":     stageDur,
			"detail":     sr.Detail,
		}
	}
	return map[string]any{
		"request_seconds": map[string]any{
			"repair":  histSummary(om.routeSeconds["repair"]),
			"metrics": histSummary(om.routeSeconds["metrics"]),
		},
		"stage_seconds":       stages,
		"shard_seconds":       histSummary(om.shard.ShardSeconds),
		"shards_total":        om.shard.Shards.Load(),
		"shard_panics_total":  om.shard.Panics.Load(),
		"records_total":       om.recordsTotal.Load(),
		"request_records":     histSummary(om.recordsPerReq),
		"slow_requests_total": om.tracer.SlowTotal(),
		"slow_requests":       slowOut,
	}
}

// statusRecorder captures the first response status, for the route
// metrics and the repair request log. code != 0 means a header or byte has
// been written: the response has started.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.code == 0 {
		sr.code = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.code == 0 {
		sr.code = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// handleMetricsProm serves the Prometheus text exposition.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.TextContentType)
	s.om.reg.WritePrometheus(w)
}

// handleBuildInfo reports the build's identity from the embedded build
// info — what exactly is running, for fleet auditing and bug reports.
func (s *Server) handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	version, goVersion, revision := buildInfo()
	writeJSON(w, http.StatusOK, map[string]any{
		"version":  version,
		"go":       goVersion,
		"revision": revision,
	})
}
