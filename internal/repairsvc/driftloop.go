package repairsvc

// The recalibration loop: what happens after the drift watcher alarms.
// driftCheck runs once per repair request (off the per-record path) and —
// when DriftCheckEvery is set — on every tick of the drift timer, so an
// idle-but-drifted artefact still recalibrates. It feeds the watcher the
// monitor's KS/PSI ratios and the calibrated engines' posterior-confidence
// drift; when the watcher reaches alarmed, the run is claimed and handed
// to the shared refit pool (bounded workers + queue across all lineages),
// which executes
//
//	fetch (researchfeed: retry/backoff + circuit breaker + fingerprint;
//	       unchanged content since the last judged run → refit_skipped_stale)
//	  → validate (min records, dimension vs the incumbent plan)
//	  → refit (core.Design on the fetched research set, same options)
//	  → canary (shadow-repair the reservoir split into judge and held-out
//	            halves under old and new; the verdict must pass on both)
//	  → swap  (planstore ref CAS lineage → candidate; monitor rebind;
//	           blind calibration refit rides along)
//	  or rollback (incumbent stays; quiet period guards the alarm loop).
//
// Nothing here touches the serve path: repairs pin explicit fingerprints,
// ps.engine is never replaced, and the only serving-state mutation is the
// monitor rebind under ps.mu — the same lock every tap already takes. The
// responses of a server running this loop are byte-identical to one with
// the loop disabled.

import (
	"context"
	"errors"
	"log/slog"
	"maps"
	"math"
	"slices"

	"otfair/internal/blind"
	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/driftwatch"
	"otfair/internal/fairmetrics"
	"otfair/internal/monitor"
	"otfair/internal/planstore"
	"otfair/internal/researchfeed"
	"otfair/internal/rng"
)

// driftCheck folds the current drift telemetry into the plan's watcher and
// hands the recalibration run to the shared refit pool when the watcher
// alarms. Called once per repair request after the stream finishes and on
// every drift-timer tick; the snapshot under ps.mu is cheap (the monitor
// aggregates incrementally).
func (s *Server) driftCheck(ps *planState) {
	ps.mu.Lock()
	snap := ps.mon.Snapshot()
	ps.mu.Unlock()
	// Tied |drift| magnitudes of opposite sign would make `worst` depend on
	// the walk order; calibrated() walks in sorted ID order, pinning the
	// fold.
	worst, haveConf := 0.0, false
	_, engines := ps.calibrated()
	for _, eng := range engines {
		t := eng.Totals()
		if t.Imputed == 0 {
			continue
		}
		d := t.MeanConfidence() - eng.Calibration().ResearchConfidence()
		if !haveConf || math.Abs(d) > math.Abs(worst) {
			worst, haveConf = d, true
		}
	}

	ps.watch.SetScores(snap.MaxKSRatio, snap.MaxPSIRatio)
	if haveConf {
		ps.watch.SetConfidenceDrift(worst)
	}
	if ps.watch.State() != driftwatch.StateAlarmed {
		return
	}
	// Claim the loop slot before claiming the alarm, so a lost CAS leaves
	// the watcher alarmed for the next check instead of stranded.
	if !ps.loopRunning.CompareAndSwap(false, true) {
		return
	}
	runID, ok := ps.watch.ShouldRecalibrate()
	if !ok {
		ps.loopRunning.Store(false)
		return
	}
	if !s.refit.enqueue(refitJob{ps: ps, runID: runID}) {
		// The shared budget is saturated. Finish the run as refit_failed —
		// the watcher lands in rolled_back with its quiet period, exactly
		// as if the refit had been tried and failed — rather than park an
		// unbounded backlog of claims.
		ps.watch.Finish(driftwatch.OutcomeRefitFailed, "",
			slog.String("error", "shared refit queue full"))
		ps.loopRunning.Store(false)
	}
}

// runDriftTimer drives timerDriftCheck every DriftCheckEvery until Close.
// The cadence comes from the injected clock, so tests schedule it without
// real sleeps and the lint contract (no raw timers in repairsvc) holds.
func (s *Server) runDriftTimer() {
	defer s.timerWG.Done()
	for {
		select {
		case <-s.timerStop:
			return
		case <-s.opts.Clock.After(s.opts.DriftCheckEvery):
			s.timerDriftCheck()
		}
	}
}

// timerDriftCheck runs one drift check over every bound plan, in sorted
// lineage order so log and transition order is reproducible. TickQuiet
// first: for an idle artefact the timer is the only thing that can drain
// a post-loop quiet period (traffic normally does it record by record).
func (s *Server) timerDriftCheck() {
	s.mu.Lock()
	states := make([]*planState, 0, len(s.states))
	for _, id := range slices.Sorted(maps.Keys(s.states)) {
		states = append(states, s.states[id])
	}
	s.mu.Unlock()
	for _, ps := range states {
		if ps.watch == nil {
			continue
		}
		ps.watch.TickQuiet()
		s.driftCheck(ps)
	}
}

// runDriftLoop executes one alarm → fetch → refit → canary → swap/rollback
// run on a refit-pool worker. Every exit path goes through Watcher.Finish,
// so the state machine always lands in swapped or rolled_back and the
// quiet period always starts. ctx is the pool's: a server Close aborts
// in-flight fetches and backoff sleeps.
func (s *Server) runDriftLoop(ctx context.Context, ps *planState, runID string) {
	defer ps.loopRunning.Store(false)
	w := ps.watch
	logger := w.Logger().With(slog.String("run", runID))

	if s.feed == nil {
		// Alarmed with nothing to act with: the alarm is still exported,
		// the loop just cannot refit.
		w.Finish(driftwatch.OutcomeRefitFailed, "",
			slog.String("error", "no recalibration source configured"))
		return
	}
	oldPlan := ps.engine.Plan()
	snap, err := s.feed.Fetch(ctx)
	if err != nil {
		// Breaker-open and exhausted-retry failures land here alike: the
		// quiet period plus the breaker's own OpenFor window give the feed
		// time to recover instead of thrashing the retry ladder.
		w.Finish(driftwatch.OutcomeRefitFailed, "", slog.String("error", err.Error()),
			slog.Bool("breaker_open", errors.Is(err, researchfeed.ErrBreakerOpen)))
		return
	}
	ps.mu.Lock()
	lastFP := ps.lastResearchFP
	ps.mu.Unlock()
	if lastFP != "" && lastFP == snap.Fingerprint {
		// The feed is healthy but delivered the records the last completed
		// run already designed and judged on; a refit would reproduce that
		// exact candidate. Decline, and let the quiet period absorb the
		// alarm until the feed actually changes.
		w.Finish(driftwatch.OutcomeRefitSkippedStale, "",
			slog.String("fingerprint", snap.Fingerprint))
		return
	}
	if verr := researchfeed.Validate(snap.Table, s.opts.FeedMinRecords, oldPlan.Dim); verr != nil {
		// A degenerate or mismatched research set must be refused with its
		// precise reason, not surfaced as a downstream design error.
		w.Finish(driftwatch.OutcomeRefitFailed, "", slog.String("error", verr.Error()),
			slog.String("feed_reject", verr.(*researchfeed.ValidationError).Reason))
		return
	}
	research := snap.Table
	// Same design options as the incumbent: the refit tracks the drifted
	// population, it does not change the experiment.
	newPlan, err := core.Design(research, oldPlan.Opts)
	if err != nil {
		w.Finish(driftwatch.OutcomeRefitFailed, "", slog.String("error", err.Error()))
		return
	}
	newID, _, err := s.store.Put(newPlan)
	if err != nil {
		w.Finish(driftwatch.OutcomeRefitFailed, "", slog.String("error", err.Error()))
		return
	}
	logger.Info("refit complete", slog.String("candidate", newID),
		slog.Int("research_records", research.Len()),
		slog.String("research_fingerprint", snap.Fingerprint))

	w.StartCanary()
	judge, held := w.ReservoirSplit()
	oldJudge := canaryStats(oldPlan, judge, s.opts.Metric)
	newJudge := canaryStats(newPlan, judge, s.opts.Metric)
	oldHeld := canaryStats(oldPlan, held, s.opts.Metric)
	newHeld := canaryStats(newPlan, held, s.opts.Metric)
	verdict := driftwatch.JudgeSplit(oldJudge, newJudge, oldHeld, newHeld, *s.opts.DriftWatch)
	evidence := []slog.Attr{
		slog.String("candidate", newID),
		slog.Int("judge_sample", len(judge)), slog.Int("held_sample", len(held)),
		slog.Float64("e_old", oldJudge.E), slog.Float64("e_new", newJudge.E),
		slog.Float64("e_old_held", oldHeld.E), slog.Float64("e_new_held", newHeld.E),
		slog.Float64("damage_old", oldJudge.Damage), slog.Float64("damage_new", newJudge.Damage),
	}
	if !verdict.Pass {
		// Do NOT record the fingerprint on a rollback: the verdict was a
		// function of this reservoir, and the next alarm judges the same
		// content against fresh traffic — it may legitimately pass then.
		evidence = append(evidence, slog.String("slice", verdict.Slice))
		w.Finish(driftwatch.OutcomeRolledBack, verdict.Reason, evidence...)
		return
	}
	// Canary passed on both halves: land the swap. The ref CAS names the
	// current incumbent (which, after a previous run, is not the lineage
	// itself), so two loops racing on one lineage cannot silently
	// overwrite each other.
	expected := s.refs.Resolve(ps.id)
	if err := casRefRetry(s.refs, ps.id, expected, newID); err != nil {
		w.Finish(driftwatch.OutcomeRefitFailed, "", slog.String("error", err.Error()))
		return
	}
	// Rebind the drift monitor to the candidate: its reference windows now
	// describe the population traffic actually drifted to, which is what
	// makes the exported drift score recover after the swap. The serving
	// engine is deliberately untouched — repairs pin explicit fingerprints.
	if mon, merr := monitor.New(newPlan, s.opts.Monitor); merr == nil {
		ps.mu.Lock()
		ps.mon = mon
		ps.mu.Unlock()
	} else {
		logger.Warn("monitor rebind failed", slog.String("error", merr.Error()))
	}
	s.recalibrateBlind(ps, newPlan, research, logger)
	// A landed swap settles the run against this feed content: the next
	// alarm on an unchanged feed would design this exact plan again and
	// swap it onto itself, so it skips as refit_skipped_stale instead.
	ps.mu.Lock()
	ps.lastResearchFP = snap.Fingerprint
	ps.mu.Unlock()
	w.Finish(driftwatch.OutcomeSwapped, "", evidence...)
}

// casRefRetry lands a ref swap with one conflict retry: when the first
// CompareAndSwap loses to a concurrent writer (ErrRefConflict), the ref
// is re-resolved and the swap retried once against the fresh incumbent.
// One retry is the right amount — the caller's claim (loopRunning / the
// watcher state machine) means a second conflict on the same lineage is a
// genuine fight that deserves the error, not a loop.
func casRefRetry(refs *planstore.Refs, lineage, expected, target string) error {
	err := refs.CompareAndSwap(lineage, expected, target)
	if errors.Is(err, planstore.ErrRefConflict) {
		err = refs.CompareAndSwap(lineage, refs.Resolve(lineage), target)
	}
	return err
}

// recalibrateBlind refits the blind calibration against the candidate plan
// and repoints every bound calibration lineage at it. Best-effort: blind
// serving keeps working on the old calibrations either way (they pin their
// own plan fingerprint), so a failure here degrades the ride-along, not the
// plan swap.
func (s *Server) recalibrateBlind(ps *planState, newPlan *core.Plan, research *dataset.Table, logger *slog.Logger) {
	ps.mu.Lock()
	// Repoint lineages in sorted order so refit logs and error attribution
	// are reproducible across runs.
	calIDs := slices.Sorted(maps.Keys(ps.blind))
	ps.mu.Unlock()
	if len(calIDs) == 0 {
		return
	}
	newCal, err := blind.NewCalibration(newPlan, research)
	if err != nil {
		logger.Warn("blind calibration refit failed", slog.String("error", err.Error()))
		return
	}
	ncID, _, err := s.cals.Put(newCal)
	if err != nil {
		logger.Warn("storing refitted calibration failed", slog.String("error", err.Error()))
		return
	}
	for _, cid := range calIDs {
		// Resolve-then-CAS races with any concurrent repoint of the same
		// calibration lineage (two plans sharing one calibration can run
		// loops concurrently); casRefRetry re-resolves and retries once
		// before the failure is surfaced.
		if err := casRefRetry(s.refs, cid, s.refs.Resolve(cid), ncID); err != nil {
			logger.Warn("calibration ref swap failed",
				slog.String("lineage", cid), slog.String("error", err.Error()))
		}
	}
}

// canaryStats shadow-repairs the reservoir sample under one plan and
// measures the result with the serving metric configuration. Any failure —
// dimension mismatch, repair error, an E the sample cannot support — yields
// NaN stats, which Judge rejects as nan_metric: a swap that cannot be
// justified must not happen.
func canaryStats(plan *core.Plan, sample []dataset.Record, metric fairmetrics.Config) driftwatch.CanaryStats {
	if len(sample) == 0 {
		return driftwatch.CanaryStats{}
	}
	nan := driftwatch.CanaryStats{E: math.NaN(), Damage: math.NaN(), Records: len(sample)}
	before, err := dataset.NewTable(plan.Dim, nil)
	if err != nil {
		return nan
	}
	for _, rec := range sample {
		if before.Append(rec) != nil {
			return nan
		}
	}
	// Fixed seed: both sides of the comparison repair the same sample with
	// the same randomness, so the verdict measures the plans, not the draw.
	rp, err := core.NewRepairer(plan, rng.New(1), core.RepairOptions{})
	if err != nil {
		return nan
	}
	after, err := rp.RepairTable(before)
	if err != nil {
		return nan
	}
	e, err := fairmetrics.E(after, metric)
	if err != nil {
		return nan
	}
	dmg, err := fairmetrics.Damage(before, after)
	if err != nil {
		return nan
	}
	return driftwatch.CanaryStats{E: e, Damage: dmg, Records: len(sample)}
}
