// Package researchfeed is the resilient research-data source layer behind
// the drift loop's refits. The paper treats the small research set as the
// quality anchor of every repair, and PR 8's loop refit from a static
// local CSV with no retry, staleness or outage handling; this package
// makes the research set a first-class, evolving input instead.
//
// A Source is a dumb transport (local file, HTTP pull with ETag, or sets
// staged through POST /v1/research); a Feed wraps one with
//
//   - a deterministic, seeded, jittered exponential-backoff RetryPolicy,
//   - a closed/open/half-open circuit Breaker over whole fetch cycles, and
//   - content fingerprinting of the canonical CSV bytes, so callers can
//     tell "the feed is fine but nothing changed" (refit_skipped_stale)
//     from "the feed is down" (refit_failed),
//
// and exports the bounded-cardinality series otfair_feed_fetches_total
// {outcome}, otfair_feed_breaker_state and otfair_feed_age_seconds.
// Everything nondeterministic — wall clock, timers, sleeps — goes through
// an injected Clock, which is what keeps the determinism-critical caller
// (repairsvc) clean under the nondetsource analyzer.
package researchfeed

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/faultinject"
	"otfair/internal/obs"
)

// Fetch outcomes (otfair_feed_fetches_total{outcome=...}).
const (
	// OutcomeOK: a fetch cycle delivered a parsed research set.
	OutcomeOK = "ok"
	// OutcomeNotModified: the source proved the content unchanged; the
	// cached snapshot was returned.
	OutcomeNotModified = "not_modified"
	// OutcomeError: the fetch cycle failed after exhausting its retries.
	OutcomeError = "error"
	// OutcomeBreakerOpen: the breaker refused the cycle outright.
	OutcomeBreakerOpen = "breaker_open"
)

var outcomes = []string{OutcomeOK, OutcomeNotModified, OutcomeError, OutcomeBreakerOpen}

// ErrBreakerOpen is returned by Fetch while the circuit breaker refuses
// fetches; callers land it as refit_failed and wait for the next alarm
// or timer tick rather than retrying themselves.
var ErrBreakerOpen = errors.New("researchfeed: circuit breaker open")

// Snapshot is one successfully fetched research set.
type Snapshot struct {
	// Table is the parsed set; it is shared across callers and must be
	// treated read-only.
	Table *dataset.Table
	// Fingerprint identifies the content: core.FingerprintBytes over the
	// canonical CSV serialization, so two deliveries of the same records
	// fingerprint identically regardless of upstream formatting.
	Fingerprint string
}

// Config assembles a Feed.
type Config struct {
	// Retry is the per-Fetch retry policy.
	Retry RetryPolicy
	// Breaker tunes the circuit breaker over whole fetch cycles.
	Breaker BreakerConfig
	// Clock injects time (nil = SystemClock).
	Clock Clock
	// Fault is the fault-injection harness (nil in production); the feed
	// honours the feed.fetch, feed.timeout, feed.torn-body and
	// feed.stale points.
	Fault *faultinject.Injector
	// Registry receives the feed's Prometheus series (nil = no metrics).
	Registry *obs.Registry
	// Logger receives fetch-attempt failures at Warn (nil = discard).
	Logger *slog.Logger
}

// Feed is a Source wrapped in the retry/breaker/fingerprint machinery.
// Safe for concurrent use — multiple refit workers may share one feed.
type Feed struct {
	src    Source
	retry  RetryPolicy
	br     *Breaker
	clock  Clock
	fault  *faultinject.Injector
	logger *slog.Logger

	fetches map[string]*obs.Counter

	lastOKNano atomic.Int64 // unix nanos of the last successful cycle, 0 = never

	mu   sync.Mutex
	last *Snapshot
}

// New builds a feed over src and registers its metric series.
func New(src Source, cfg Config) *Feed {
	clock := cfg.Clock
	if clock == nil {
		clock = SystemClock{}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	f := &Feed{
		src:    src,
		retry:  cfg.Retry.withDefaults(),
		br:     NewBreaker(cfg.Breaker, clock),
		clock:  clock,
		fault:  cfg.Fault,
		logger: logger.With(slog.String("component", "researchfeed"), slog.String("source", src.Kind())),
	}
	if reg := cfg.Registry; reg != nil {
		f.fetches = make(map[string]*obs.Counter, len(outcomes))
		for _, o := range outcomes {
			f.fetches[o] = reg.CounterL("otfair_feed_fetches_total",
				"Research-feed fetch cycles by outcome.", "outcome", o)
		}
		reg.GaugeFunc("otfair_feed_breaker_state",
			"Research-feed circuit breaker state (0=closed 1=open 2=half_open).",
			func() float64 { return float64(f.br.State()) })
		reg.GaugeFunc("otfair_feed_age_seconds",
			"Seconds since the last successful research-feed fetch (NaN before the first).",
			func() float64 {
				n := f.lastOKNano.Load()
				if n == 0 {
					return math.NaN()
				}
				return f.clock.Now().Sub(time.Unix(0, n)).Seconds()
			})
	}
	return f
}

// Kind reports the wrapped source's kind.
func (f *Feed) Kind() string { return f.src.Kind() }

func (f *Feed) count(outcome string) {
	if c := f.fetches[outcome]; c != nil {
		c.Inc()
	}
}

// Fetch runs one fetch cycle: breaker admission, up to Retry.Attempts
// source fetches separated by the seeded backoff schedule, parse and
// fingerprint. A not-modified answer returns the cached snapshot — same
// fingerprint, so per-lineage staleness gating downstream still works.
func (f *Feed) Fetch(ctx context.Context) (*Snapshot, error) {
	if !f.br.Allow() {
		f.count(OutcomeBreakerOpen)
		return nil, ErrBreakerOpen
	}
	var lastErr error
	for attempt := 0; attempt < f.retry.Attempts; attempt++ {
		if attempt > 0 {
			if err := f.clock.Sleep(ctx, f.retry.Delay(attempt-1)); err != nil {
				lastErr = err
				break
			}
		}
		snap, err := f.fetchOnce(ctx)
		if err == nil {
			f.settle(snap)
			f.count(OutcomeOK)
			return snap, nil
		}
		if errors.Is(err, ErrNotModified) {
			f.mu.Lock()
			cached := f.last
			f.mu.Unlock()
			if cached != nil {
				f.settle(cached)
				f.count(OutcomeNotModified)
				return cached, nil
			}
			// Nothing cached to dedup against (a stale signal before any
			// successful fetch, e.g. after a restart): treat as a failed
			// attempt and retry.
			err = fmt.Errorf("researchfeed: %s source reports not-modified with no cached snapshot: %w", f.src.Kind(), err)
		}
		lastErr = err
		f.logger.Warn("feed fetch attempt failed",
			slog.Int("attempt", attempt+1), slog.Int("attempts", f.retry.Attempts),
			slog.String("error", err.Error()))
		if ctx.Err() != nil {
			break
		}
	}
	f.br.Failure()
	f.count(OutcomeError)
	return nil, lastErr
}

// settle records a successful cycle: breaker closes, freshness clock and
// the cached snapshot update.
func (f *Feed) settle(snap *Snapshot) {
	f.br.Success()
	f.lastOKNano.Store(f.clock.Now().UnixNano())
	f.mu.Lock()
	f.last = snap
	f.mu.Unlock()
}

// fetchOnce is one source attempt: fault hooks, transport, parse,
// canonical fingerprint.
func (f *Feed) fetchOnce(ctx context.Context) (*Snapshot, error) {
	if err := f.fault.Err(faultinject.FeedFetch); err != nil {
		return nil, fmt.Errorf("researchfeed: fetching from %s source: %w", f.src.Kind(), err)
	}
	if err := f.fault.Err(faultinject.FeedTimeout); err != nil {
		return nil, fmt.Errorf("researchfeed: %s source attempt timed out: %w", f.src.Kind(), context.DeadlineExceeded)
	}
	if err := f.fault.Err(faultinject.FeedStale); err != nil {
		return nil, ErrNotModified
	}
	raw, err := f.src.Fetch(ctx)
	if err != nil {
		return nil, err
	}
	raw = f.fault.Corrupt(faultinject.FeedTornBody, raw)
	tbl, err := dataset.ReadCSV(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("researchfeed: parsing %s feed body: %w", f.src.Kind(), err)
	}
	// Fingerprint the canonical re-serialization, not the wire bytes:
	// two deliveries of the same records must dedup regardless of
	// upstream float formatting or line endings.
	var canon bytes.Buffer
	if err := tbl.WriteCSV(&canon); err != nil {
		return nil, fmt.Errorf("researchfeed: canonicalizing %s feed body: %w", f.src.Kind(), err)
	}
	return &Snapshot{Table: tbl, Fingerprint: core.FingerprintBytes(canon.Bytes())}, nil
}
