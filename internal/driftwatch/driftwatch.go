// Package driftwatch turns drift telemetry into action. The serving stack
// already measures drift — monitor raises KS/PSI alarms per (u,s,feature)
// cell and the calibrated repairsvc engines track posterior-confidence
// drift per calibration — but
// until this package nothing acted on any of it. A Watcher folds those
// signals into a per-artefact state machine
//
//	ok → warning → alarmed → recalibrating → canarying → swapped
//	                                                   ↘ rolled-back
//
// and the recalibration loop (driven by the caller, repairsvc) uses the
// Watcher's reservoir of recent labelled traffic to canary a refitted plan
// before swapping it in: shadow-repair the sample under old and new,
// compare fairness (fairmetrics E) and per-record damage, and let Judge
// decide. A refit from a fresh research set can be *worse* than the stale
// plan it replaces — representation bias in the new sample, a bad upstream
// feed — so the canary verdict, not the refit, gates the swap.
//
// Every state, score, and transition is exported through internal/obs as
// bounded-cardinality Prometheus series (artefact label values come from
// the caller's fixed set of bound plan fingerprints, never from request
// input) and logged through slog with a per-loop run ID correlating the
// whole alarm → refit → canary → swap/rollback sequence. The Watcher is
// mutation-locked but scrape-safe: exposition-time closures read atomics,
// so a Prometheus scrape never contends with the serving path.
package driftwatch

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"

	"otfair/internal/dataset"
	"otfair/internal/obs"
	"otfair/internal/rng"
)

// State is one node of the per-artefact drift state machine. The numeric
// values are the wire contract of the otfair_drift_state gauge.
type State int

const (
	// StateOK: scores below alarm bounds, nothing in flight.
	StateOK State = iota
	// StateWarning: at least one score crossed its bound, not yet for
	// Config.AlarmAfter consecutive checks.
	StateWarning
	// StateAlarmed: the bound has held for AlarmAfter checks; a
	// recalibration loop may claim the artefact (ShouldRecalibrate).
	StateAlarmed
	// StateRecalibrating: a loop owns the artefact and is refitting.
	StateRecalibrating
	// StateCanarying: the refit is being shadow-compared against the
	// incumbent on the reservoir sample.
	StateCanarying
	// StateSwapped: the canary passed and the fingerprint swap landed;
	// quiet period running before the watcher re-arms.
	StateSwapped
	// StateRolledBack: the refit failed or the canary rejected it; the
	// incumbent stays and the quiet period guards against an alarm loop.
	StateRolledBack
)

// String names the state as exported in logs and transition labels.
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateWarning:
		return "warning"
	case StateAlarmed:
		return "alarmed"
	case StateRecalibrating:
		return "recalibrating"
	case StateCanarying:
		return "canarying"
	case StateSwapped:
		return "swapped"
	default:
		return "rolled_back"
	}
}

// states is the closed label set of the transitions counter, registered up
// front so every series exists (at zero) from the first scrape.
var states = []State{StateOK, StateWarning, StateAlarmed, StateRecalibrating,
	StateCanarying, StateSwapped, StateRolledBack}

// Recalibration outcomes (otfair_recalibrations_total{outcome=...}).
const (
	// OutcomeSwapped: canary passed, fingerprint swap landed.
	OutcomeSwapped = "swapped"
	// OutcomeRolledBack: canary rejected the refit; incumbent kept.
	OutcomeRolledBack = "rolled_back"
	// OutcomeRefitFailed: the refit itself failed (source unreadable,
	// feed down or invalid, design error) before any canary ran;
	// incumbent kept.
	OutcomeRefitFailed = "refit_failed"
	// OutcomeRefitSkippedStale: the feed answered but its content
	// fingerprint matches what the last completed loop already judged —
	// refitting would reproduce the same candidate, so the loop declines
	// and the quiet period absorbs the alarm.
	OutcomeRefitSkippedStale = "refit_skipped_stale"
)

var outcomes = []string{OutcomeSwapped, OutcomeRolledBack, OutcomeRefitFailed,
	OutcomeRefitSkippedStale}

// Config tunes the state machine and the canary verdict.
type Config struct {
	// AlarmAfter is how many consecutive alarming score updates promote
	// warning to alarmed (default 3) — one excursion is noise, a streak is
	// drift.
	AlarmAfter int
	// QuietAfter is how many observed records after a swap or rollback the
	// watcher stays disarmed (default 2048): post-swap windows still
	// straddle old traffic, and a rejected refit must not immediately
	// re-alarm into a refit loop.
	QuietAfter int
	// ReservoirSize caps the canary reservoir (default 512). Reservoir
	// sampling (algorithm R) keeps a uniform sample of the labelled
	// records seen since the last loop finished.
	ReservoirSize int
	// MaxERise is the largest fairness regression (new E minus old E on
	// the shadow-repaired reservoir) the canary accepts (default 0: the
	// refit must not be less fair than the incumbent; equal passes).
	MaxERise float64
	// MaxDamageRise is the largest damage increase (mean squared
	// displacement, new minus old) the canary accepts (default 0.25).
	MaxDamageRise float64
	// ConfidenceAlarm is the blind posterior-confidence drift magnitude
	// that counts as an alarming score (default 0.15). The exported
	// confidence score is drift/ConfidenceAlarm, so ≥ 1 means alarming —
	// the same convention the monitor's KS/PSI ratios use.
	ConfidenceAlarm float64
	// Seed drives reservoir sampling (default 1).
	Seed uint64
	// Logger receives transition events (nil = discard). Alarm and
	// rollback transitions log at Warn, everything else at Info; all lines
	// of one loop run carry the same run attribute.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.AlarmAfter == 0 {
		c.AlarmAfter = 3
	}
	if c.QuietAfter == 0 {
		c.QuietAfter = 2048
	}
	if c.ReservoirSize == 0 {
		c.ReservoirSize = 512
	}
	// A NaN bound would compare false against every canary rise and accept
	// every refit (and a NaN ConfidenceAlarm would poison the exported
	// drift/ConfidenceAlarm ratio), so non-finite thresholds fall back to
	// the defaults like unset ones do.
	if math.IsNaN(c.MaxERise) || math.IsInf(c.MaxERise, 0) {
		c.MaxERise = 0
	}
	if math.IsNaN(c.MaxDamageRise) || math.IsInf(c.MaxDamageRise, 0) || c.MaxDamageRise == 0 {
		c.MaxDamageRise = 0.25
	}
	if math.IsNaN(c.ConfidenceAlarm) || math.IsInf(c.ConfidenceAlarm, 0) || c.ConfidenceAlarm == 0 {
		c.ConfidenceAlarm = 0.15
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Watcher is the drift state machine for one artefact (one bound plan
// fingerprint). Mutating methods are safe for concurrent use; the metric
// closures handed to the registry read atomics so scrapes never block on
// the watcher's mutex.
type Watcher struct {
	cfg      Config
	artefact string

	state atomic.Int64
	// scores are Float64bits so GaugeFunc closures can read them lock-free.
	ksScore, psiScore, confScore atomic.Uint64

	mu       sync.Mutex
	hot      int    // consecutive alarming score updates
	quiet    int    // observations left before re-arming
	runs     int    // loop runs started (mints run IDs)
	runID    string // current (or last) loop run ID
	res      *reservoir
	lastOut  string // last Finish outcome, "" before any loop
	lastWhy  string // last canary failure reason, "" on pass
	resCount int64  // lifetime records offered to the reservoir

	trans   map[State]*obs.Counter
	recals  map[string]*obs.Counter
	canFail map[string]*obs.Counter
}

// New builds a watcher for one artefact and registers its Prometheus
// series with reg (nil = no metrics). The artefact label value must come
// from a bounded set — the caller's bound-plan fingerprints — never from
// raw request input; re-registering the same artefact rebinds the scrape
// closures to the new watcher, so eviction/rebind cycles do not leak
// series.
func New(artefact string, cfg Config, reg *obs.Registry) *Watcher {
	w := &Watcher{cfg: cfg.withDefaults(), artefact: artefact}
	w.res = newReservoir(w.cfg.ReservoirSize, w.cfg.Seed)
	w.cfg.Logger = w.cfg.Logger.With(
		slog.String("component", "driftwatch"), slog.String("artefact", artefact))
	if reg == nil {
		return w
	}
	reg.GaugeFunc("otfair_drift_state",
		"Drift state machine position per artefact (0=ok 1=warning 2=alarmed 3=recalibrating 4=canarying 5=swapped 6=rolled_back).",
		//otfair:cardinality-ok artefact values are bound-plan fingerprints, capped by the store's bind capacity
		func() float64 { return float64(w.State()) }, "artefact", artefact)
	for stat, v := range map[string]*atomic.Uint64{
		"ks": &w.ksScore, "psi": &w.psiScore, "confidence": &w.confScore,
	} {
		v := v
		reg.GaugeFunc("otfair_drift_score",
			"Continuous drift score per artefact and statistic; >= 1 means past the alarm bound.",
			func() float64 { return math.Float64frombits(v.Load()) },
			//otfair:cardinality-ok artefact values are bound-plan fingerprints, capped by the store's bind capacity
			"artefact", artefact, "stat", stat)
	}
	w.trans = make(map[State]*obs.Counter, len(states))
	for _, st := range states {
		w.trans[st] = reg.CounterL("otfair_drift_transitions_total",
			"Drift state machine transitions per artefact and destination state.",
			//otfair:cardinality-ok artefact values are bound-plan fingerprints, capped by the store's bind capacity
			"artefact", artefact, "to", st.String())
	}
	w.recals = make(map[string]*obs.Counter, len(outcomes))
	for _, o := range outcomes {
		w.recals[o] = reg.CounterL("otfair_recalibrations_total",
			"Completed recalibration loops by outcome.", "outcome", o)
	}
	w.canFail = make(map[string]*obs.Counter, len(failReasons))
	for _, r := range failReasons {
		w.canFail[r] = reg.CounterL("otfair_canary_failures_total",
			"Canary rejections by reason.", "reason", r)
	}
	return w
}

// State returns the current machine position.
func (w *Watcher) State() State { return State(w.state.Load()) }

// transition moves the machine, with mu held. Alarm and rollback page
// (Warn); everything else narrates (Info).
func (w *Watcher) transition(to State, attrs ...slog.Attr) {
	from := State(w.state.Load())
	if from == to {
		return
	}
	w.state.Store(int64(to))
	if c := w.trans[to]; c != nil {
		c.Inc()
	}
	level := slog.LevelInfo
	if to == StateAlarmed || to == StateRolledBack {
		level = slog.LevelWarn
	}
	base := []slog.Attr{
		slog.String("from", from.String()), slog.String("to", to.String()),
		slog.String("run", w.runID),
		slog.Float64("ks_score", math.Float64frombits(w.ksScore.Load())),
		slog.Float64("psi_score", math.Float64frombits(w.psiScore.Load())),
		slog.Float64("confidence_score", math.Float64frombits(w.confScore.Load())),
	}
	w.cfg.Logger.LogAttrs(context.Background(), level, "drift transition", append(base, attrs...)...)
}

// Observe feeds one served record to the watcher: labelled records enter
// the canary reservoir, and every record runs down the post-loop quiet
// period. Call it off the response path — the reservoir copies X.
func (w *Watcher) Observe(rec dataset.Record) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.quiet > 0 {
		w.quiet--
		if w.quiet == 0 {
			w.hot = 0
			w.transition(StateOK)
		}
	}
	if rec.S != dataset.SUnknown {
		w.resCount++
		w.res.add(rec)
	}
}

// TickQuiet runs one timer-driven quiet-period step. Traffic drains the
// post-loop quiet period through Observe; an idle artefact sees no
// traffic, so the drift timer substitutes its ticks — without this, a
// plan that drifted and then went quiet would stay disarmed forever and
// never recalibrate again.
func (w *Watcher) TickQuiet() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.quiet > 0 {
		w.quiet--
		if w.quiet == 0 {
			w.hot = 0
			w.transition(StateOK)
		}
	}
}

// SetScores records the monitor's current worst KS and PSI
// statistic/threshold ratios and runs the arming logic.
func (w *Watcher) SetScores(ks, psi float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ksScore.Store(math.Float64bits(ks))
	w.psiScore.Store(math.Float64bits(psi))
	w.arm()
}

// SetConfidenceDrift records the worst blind posterior-confidence drift
// magnitude across the artefact's bound calibrations; the exported score is
// drift/ConfidenceAlarm so ≥ 1 means alarming.
func (w *Watcher) SetConfidenceDrift(drift float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.confScore.Store(math.Float64bits(math.Abs(drift) / w.cfg.ConfidenceAlarm))
	w.arm()
}

// arm advances ok → warning → alarmed (or retreats to ok) from the current
// scores. Only the pre-loop states move; once a loop owns the artefact
// (recalibrating/canarying) or a quiet period runs, scores update for
// export but do not drive transitions. Caller holds mu.
func (w *Watcher) arm() {
	st := State(w.state.Load())
	if st != StateOK && st != StateWarning && st != StateAlarmed || w.quiet > 0 {
		return
	}
	worst := math.Max(math.Float64frombits(w.ksScore.Load()),
		math.Max(math.Float64frombits(w.psiScore.Load()),
			math.Float64frombits(w.confScore.Load())))
	if worst < 1 {
		w.hot = 0
		if st != StateOK {
			w.transition(StateOK)
		}
		return
	}
	w.hot++
	if st == StateOK {
		w.transition(StateWarning)
		st = StateWarning
	}
	if st == StateWarning && w.hot >= w.cfg.AlarmAfter {
		w.runs++
		w.runID = fmt.Sprintf("%s/run%d", shortID(w.artefact), w.runs)
		w.transition(StateAlarmed, slog.Int("hot_checks", w.hot))
	}
}

// ShouldRecalibrate atomically claims an alarmed artefact for a
// recalibration loop: exactly one caller gets (runID, true) per alarm, and
// the machine moves to recalibrating.
func (w *Watcher) ShouldRecalibrate() (runID string, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if State(w.state.Load()) != StateAlarmed {
		return "", false
	}
	w.transition(StateRecalibrating)
	return w.runID, true
}

// StartCanary marks the refit done and the shadow comparison running.
func (w *Watcher) StartCanary() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if State(w.state.Load()) == StateRecalibrating {
		w.transition(StateCanarying)
	}
}

// Finish ends the loop run: outcome is one of the Outcome constants,
// reason the canary failure reason ("" unless the canary rejected).
// The machine lands in swapped or rolled-back, the reservoir resets (the
// next canary must sample post-loop traffic), and the quiet period starts.
func (w *Watcher) Finish(outcome, reason string, attrs ...slog.Attr) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if c := w.recals[outcome]; c != nil {
		c.Inc()
	}
	if reason != "" {
		if c := w.canFail[reason]; c != nil {
			c.Inc()
		}
	}
	w.lastOut, w.lastWhy = outcome, reason
	w.hot = 0
	w.quiet = w.cfg.QuietAfter
	w.res = newReservoir(w.cfg.ReservoirSize, w.cfg.Seed+uint64(w.runs))
	w.resCount = 0
	to := StateRolledBack
	if outcome == OutcomeSwapped {
		to = StateSwapped
	}
	attrs = append(attrs, slog.String("outcome", outcome))
	if reason != "" {
		attrs = append(attrs, slog.String("reason", reason))
	}
	w.transition(to, attrs...)
}

// ReservoirSplit partitions a copy of the canary reservoir into a judge
// half and a held-out half: a Fisher–Yates shuffle driven by the
// reservoir's own seeded RNG, then an even split (the judge half takes
// the extra record on odd sizes). The two halves are disjoint uniform
// subsamples, so a candidate that merely memorizes the judge half cannot
// also pass on the held-out half. Deterministic given the traffic: the
// reservoir RNG's state is a pure function of the seed and the offered
// records, and the loop that calls this owns the reservoir until Finish
// resets it.
func (w *Watcher) ReservoirSplit() (judge, held []dataset.Record) {
	w.mu.Lock()
	defer w.mu.Unlock()
	recs := w.res.records()
	for i := len(recs) - 1; i > 0; i-- {
		j := w.res.r.IntN(i + 1)
		recs[i], recs[j] = recs[j], recs[i]
	}
	half := (len(recs) + 1) / 2
	return recs[:half], recs[half:]
}

// Logger returns the watcher's transition logger, pre-tagged with the
// artefact, for loop code that wants correlated lines between transitions.
func (w *Watcher) Logger() *slog.Logger { return w.cfg.Logger }

// Snapshot is the watcher's JSON-facing view (the /v1/metrics drift
// section of cmd/fairserved).
type Snapshot struct {
	Artefact        string  `json:"artefact"`
	State           string  `json:"state"`
	RunID           string  `json:"run_id,omitempty"`
	KSScore         float64 `json:"ks_score"`
	PSIScore        float64 `json:"psi_score"`
	ConfidenceScore float64 `json:"confidence_score"`
	ReservoirLen    int     `json:"reservoir_len"`
	QuietLeft       int     `json:"quiet_left,omitempty"`
	LastOutcome     string  `json:"last_outcome,omitempty"`
	LastReason      string  `json:"last_reason,omitempty"`
}

// Snapshot reports the current state for dashboards.
func (w *Watcher) Snapshot() Snapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Snapshot{
		Artefact:        w.artefact,
		State:           State(w.state.Load()).String(),
		RunID:           w.runID,
		KSScore:         math.Float64frombits(w.ksScore.Load()),
		PSIScore:        math.Float64frombits(w.psiScore.Load()),
		ConfidenceScore: math.Float64frombits(w.confScore.Load()),
		ReservoirLen:    w.res.len(),
		QuietLeft:       w.quiet,
		LastOutcome:     w.lastOut,
		LastReason:      w.lastWhy,
	}
}

// shortID truncates a fingerprint for run IDs and logs.
func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// reservoir is algorithm R: a uniform sample of the records offered so
// far, O(1) per offer, fixed memory.
type reservoir struct {
	cap  int
	r    *rng.RNG
	seen int64
	recs []dataset.Record
}

func newReservoir(capacity int, seed uint64) *reservoir {
	return &reservoir{cap: capacity, r: rng.New(seed)}
}

// add offers one record. X is copied only when the record is actually
// admitted — once the reservoir is warm almost every offer is a rejection,
// and the serve-path tap must not pay an allocation for those.
func (rv *reservoir) add(rec dataset.Record) {
	rv.seen++
	if len(rv.recs) < rv.cap {
		rec.X = append([]float64(nil), rec.X...)
		rv.recs = append(rv.recs, rec)
		return
	}
	if j := rv.r.IntN(int(rv.seen)); j < rv.cap {
		rec.X = append([]float64(nil), rec.X...)
		rv.recs[j] = rec
	}
}

func (rv *reservoir) len() int { return len(rv.recs) }

// records returns a copy of the sample (records share their X backing with
// the reservoir's own copies, which are never mutated).
func (rv *reservoir) records() []dataset.Record {
	return append([]dataset.Record(nil), rv.recs...)
}
