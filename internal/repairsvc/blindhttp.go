package repairsvc

// The blind half of the HTTP surface: calibration artefact lifecycle
// (fit, upload, list, download) and the serving-state binding that lets
// POST /v1/repair accept s-unlabelled streams. A calibration is fitted
// once against a stored plan (POST /v1/calibrations with the research CSV)
// and persisted content-addressed next to the plans; repair requests then
// name it with ?calibration=<id> and pick a blind method per request.

import (
	"fmt"
	"maps"
	"net/http"
	"slices"

	"otfair/internal/blind"
	"otfair/internal/dataset"
)

// blindState resolves the serving state for a (plan, calibration) pair:
// the plan's labelled state (binding it if needed) plus the calibrated
// engine derived from its labelled engine, built once per (plan,
// calibration) and sharing the labelled alias tables. planID may be
// empty — the calibration knows the plan it was fitted against; when
// given, it must match.
func (s *Server) blindState(planID, calID string) (*planState, *Engine, error) {
	cal, err := s.cals.Get(calID)
	if err != nil {
		return nil, nil, err
	}
	if planID == "" {
		planID = cal.PlanID()
	} else if planID != cal.PlanID() {
		return nil, nil, fmt.Errorf("%w: calibration %s was fitted for plan %s, not %s", errCalibrationMismatch, calID, cal.PlanID(), planID)
	}
	ps, err := s.state(planID)
	if err != nil {
		return nil, nil, err
	}
	// Bound the blind tier like the labelled one: each engine pins a
	// pooled-plan sampler, so memory must scale with the hot calibration
	// set, not with every calibration ever touched.
	entry, err := getOrBind(&ps.mu, ps.blind, &ps.blindClock, calID, s.opts.MaxBoundCalibrations,
		func(e *blindEntry) *uint64 { return &e.lastUsed },
		func() (*blindEntry, error) {
			eng, err := ps.engine.WithCalibration(cal)
			return &blindEntry{engine: eng}, err
		})
	if err != nil {
		return nil, nil, err
	}
	return ps, entry.engine, nil
}

// calibrated snapshots the plan's calibrated engines and their calibration
// IDs, in ID order, so every fold over them is order-stable. Engine
// counters carry their own lock and are read after ps.mu is released.
func (ps *planState) calibrated() (ids []string, engines []*Engine) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ids = slices.Sorted(maps.Keys(ps.blind))
	engines = make([]*Engine, len(ids))
	for i, id := range ids {
		engines[i] = ps.blind[id].engine
	}
	return ids, engines
}

// handleCalibrationsPost fits a calibration from a research CSV body
// (text/csv, ?plan=<id> naming the stored plan it calibrates) or registers
// an uploaded serialized calibration (application/json). Either way the
// artefact lands in the calibration store and the response carries its
// content fingerprint.
func (s *Server) handleCalibrationsPost(w http.ResponseWriter, r *http.Request) {
	s.limitBody(w, r)
	var (
		cal *blind.Calibration
		err error
	)
	switch ct := mediaType(r); {
	case ct == "application/json":
		cal, err = blind.ReadCalibration(r.Body)
		if err != nil {
			httpError(w, errStatusOr(err, http.StatusBadRequest), "invalid calibration upload: %v", err)
			return
		}
		// An uploaded calibration carries its own plan binding; a
		// conflicting ?plan= is a client error, not something to silently
		// ignore. (The plan itself may arrive later — fleet peers upload
		// in either order — so its absence from the store is not checked.)
		if planID := r.URL.Query().Get("plan"); planID != "" && planID != cal.PlanID() {
			httpError(w, http.StatusConflict, "uploaded calibration was fitted for plan %s, not %s", cal.PlanID(), planID)
			return
		}
	case ct == "text/csv" || ct == "":
		planID := r.URL.Query().Get("plan")
		if planID == "" {
			httpError(w, http.StatusBadRequest, "missing plan parameter")
			return
		}
		plan, perr := s.store.Get(planID)
		if perr != nil {
			httpError(w, errStatus(perr), "%v", perr)
			return
		}
		research, rerr := dataset.ReadCSV(r.Body)
		if rerr != nil {
			httpError(w, errStatusOr(rerr, http.StatusBadRequest), "invalid research csv: %v", rerr)
			return
		}
		cal, err = blind.NewCalibration(plan, research)
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, "calibration failed: %v", err)
			return
		}
	default:
		httpError(w, http.StatusUnsupportedMediaType, "send research data as text/csv or a calibration as application/json, got %q", ct)
		return
	}
	id, created, err := s.cals.Put(cal)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "storing calibration: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":                  id,
		"plan":                cal.PlanID(),
		"dim":                 cal.Dim(),
		"research_records":    cal.ResearchRecords(),
		"research_confidence": cal.ResearchConfidence(),
		"existed":             !created,
	})
}

func (s *Server) handleCalibrationsList(w http.ResponseWriter, r *http.Request) {
	ids, err := s.cals.IDs()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if ids == nil {
		ids = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"calibrations": ids})
}

func (s *Server) handleCalibrationGet(w http.ResponseWriter, r *http.Request) {
	cal, err := s.cals.Get(r.PathValue("id"))
	if err != nil {
		httpError(w, errStatus(err), "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := cal.WriteJSON(w); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

// blindMetrics snapshots the per-calibration blind telemetry of one plan
// state for /v1/metrics: imputation traffic, the posterior-confidence mean
// with its drift from the research-time baseline, and the ambiguity
// histogram.
func blindMetrics(ps *planState) map[string]any {
	ids, engines := ps.calibrated()
	out := make(map[string]any, len(ids))
	for i, eng := range engines {
		totals := eng.Totals()
		cal := eng.Calibration()
		entry := map[string]any{
			"records":             totals.Records,
			"labels_used":         totals.LabelsUsed,
			"imputed":             totals.Imputed,
			"research_confidence": cal.ResearchConfidence(),
			"ambiguity_histogram": totals.AmbiguityBins,
		}
		// Confidence statistics are undefined until something was imputed
		// (pooled traffic and fully labelled streams never consult the
		// posterior); reporting a zero mean would read as a huge spurious
		// negative drift, so the fields are omitted instead.
		if totals.Imputed > 0 {
			entry["mean_confidence"] = totals.MeanConfidence()
			// Drift of the serving-time posterior confidence against the
			// research baseline: strongly negative means the archive is far
			// more ambiguous than the data the calibration was fitted on.
			entry["confidence_drift"] = totals.MeanConfidence() - cal.ResearchConfidence()
		}
		out[ids[i]] = entry
	}
	return out
}
