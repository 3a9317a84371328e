package repairsvc

// Long-horizon drift-loop scenario tests: inject distribution drift into
// served traffic and prove the whole closed loop through public surfaces
// only — the Go API, /metrics scrapes, /v1/refs and /v1/metrics JSON. The
// core invariant rides along the whole way: every 2xx response from the
// watched server is byte-identical to a loop-disabled server answering the
// same requests, because repairs pin explicit fingerprints and the loop
// never touches the serving engine.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/driftwatch"
	"otfair/internal/monitor"
	"otfair/internal/obs"
	"otfair/internal/planstore"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// driftGroup and driftShift define the injected drift: the damaging,
// group-conditional kind (the s-conditional relationship itself changes).
var (
	driftGroup = dataset.Group{U: 0, S: 1}
	driftShift = []float64{2.0, 2.0}
)

// shiftedTable draws n paper-scenario records with frac of the drift shift
// applied to the drift group (frac 0 = stationary, 1 = fully drifted).
func shiftedTable(t testing.TB, seed uint64, n int, frac float64) *dataset.Table {
	t.Helper()
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	tbl, err := dataset.NewTable(simulate.Paper().Dim, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := sampler.Draw(r)
		if rec.U == driftGroup.U && rec.S == driftGroup.S {
			for k := range rec.X {
				rec.X[k] += frac * driftShift[k]
			}
		}
		if err := tbl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// scrapeProm fetches /metrics and indexes the exposition by name{labels}.
func scrapeProm(t testing.TB, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	byKey := make(map[string]float64, len(samples))
	for _, s := range samples {
		byKey[s.Key()] = s.Value
	}
	return byKey
}

func TestDriftScenario(t *testing.T) {
	const (
		nResearch   = 400
		nStationary = 150
		nDrifted    = 400
	)
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	research, err := sampler.Table(rng.New(1), nResearch)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Design(research, core.Options{NQ: 30})
	if err != nil {
		t.Fatal(err)
	}

	// The fresh research source the loop refits from: a small sample of the
	// population traffic has drifted to.
	fresh := shiftedTable(t, 2, nResearch, 1)
	srcPath := filepath.Join(t.TempDir(), "fresh-research.csv")
	f, err := os.Create(srcPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	mkServer := func(watch bool) (*httptest.Server, string) {
		store, serr := planstore.Open(t.TempDir(), planstore.Options{})
		if serr != nil {
			t.Fatal(serr)
		}
		id, _, perr := store.Put(plan)
		if perr != nil {
			t.Fatal(perr)
		}
		opts := ServerOptions{
			MetricWindow: 4096,
			Monitor:      monitor.Options{Window: 128, CheckEvery: 32},
		}
		if watch {
			opts.DriftWatch = &driftwatch.Config{
				AlarmAfter:    2,
				QuietAfter:    64,
				ReservoirSize: 256,
				MaxERise:      0.05,
				MaxDamageRise: 10,
				Seed:          1,
			}
			opts.RecalibrateFrom = srcPath
		}
		handler, herr := NewServer(store, opts)
		if herr != nil {
			t.Fatal(herr)
		}
		srv := httptest.NewServer(handler)
		t.Cleanup(srv.Close)
		return srv, id
	}

	watched, id := mkServer(true)
	control, cid := mkServer(false)
	if cid != id {
		t.Fatalf("plan fingerprints diverge: %s vs %s", id, cid)
	}

	// repairBoth sends one identical repair to both servers and asserts the
	// watched server's bytes equal the loop-disabled server's.
	repairBoth := func(seq int, tbl *dataset.Table) {
		t.Helper()
		path := fmt.Sprintf("/v1/repair?plan=%s&seed=%d&workers=1", id, seq)
		read := func(base string) []byte {
			resp := postCSV(t, base+path, tbl)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("request %d: %s: %s", seq, resp.Status, body)
			}
			b, rerr := io.ReadAll(resp.Body)
			if rerr != nil {
				t.Fatal(rerr)
			}
			return b
		}
		if a, b := read(watched.URL), read(control.URL); !bytes.Equal(a, b) {
			t.Fatalf("request %d: watched server diverged from loop-disabled server (%d vs %d bytes)", seq, len(a), len(b))
		}
	}

	stateKey := `otfair_drift_state{artefact="` + id + `"}`
	ksKey := `otfair_drift_score{artefact="` + id + `",stat="ks"}`
	swapKey := `otfair_recalibrations_total{outcome="swapped"}`

	// Phase 1: stationary traffic. The watcher must stay quiet.
	for i := 0; i < 2; i++ {
		repairBoth(i, shiftedTable(t, uint64(100+i), nStationary, 0))
	}
	if st := scrapeProm(t, watched.URL)[stateKey]; st != float64(driftwatch.StateOK) {
		t.Fatalf("stationary traffic moved the state machine to %v", st)
	}

	// Phase 2: drifted traffic until the loop lands a swap. Requests keep
	// flowing while the loop refits and canaries, and each one is checked
	// byte-identical against the loop-disabled server.
	deadline := time.Now().Add(60 * time.Second)
	seq := 10
	var m map[string]float64
	for {
		repairBoth(seq, shiftedTable(t, uint64(200+seq), nDrifted, 1))
		seq++
		m = scrapeProm(t, watched.URL)
		if m[swapKey] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no swap after %d requests: state=%v ks=%v rolled_back=%v refit_failed=%v reasons: empty=%v nan=%v e=%v damage=%v",
				seq, m[stateKey], m[ksKey],
				m[`otfair_recalibrations_total{outcome="rolled_back"}`],
				m[`otfair_recalibrations_total{outcome="refit_failed"}`],
				m[`otfair_canary_failures_total{reason="empty_reservoir"}`],
				m[`otfair_canary_failures_total{reason="nan_metric"}`],
				m[`otfair_canary_failures_total{reason="e_regressed"}`],
				m[`otfair_canary_failures_total{reason="damage_regressed"}`])
		}
	}
	if m[swapKey] != 1 {
		t.Errorf("recalibrations swapped = %v, want exactly 1", m[swapKey])
	}
	for _, to := range []string{"warning", "alarmed", "recalibrating", "canarying", "swapped"} {
		key := `otfair_drift_transitions_total{artefact="` + id + `",to="` + to + `"}`
		if m[key] < 1 {
			t.Errorf("transition to %s never exported (%v)", to, m[key])
		}
	}

	// The ref namespace records the swap: lineage → a different, fetchable
	// plan fingerprint.
	resp, err := http.Get(watched.URL + "/v1/refs")
	if err != nil {
		t.Fatal(err)
	}
	var refsOut struct {
		Refs map[string]string `json:"refs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&refsOut); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	newID, ok := refsOut.Refs[id]
	if !ok || newID == id {
		t.Fatalf("refs after swap = %v, want lineage %s repointed", refsOut.Refs, id)
	}
	planResp, err := http.Get(watched.URL + "/v1/plans/" + newID)
	if err != nil {
		t.Fatal(err)
	}
	planResp.Body.Close()
	if planResp.StatusCode != http.StatusOK {
		t.Fatalf("swapped-in plan %s not servable: %s", newID, planResp.Status)
	}

	// Phase 3: score recovery. The monitor was rebound to the refitted
	// plan, so continued drifted traffic now matches the reference and the
	// exported drift score drops below the alarm bound.
	for i := 0; i < 4; i++ {
		repairBoth(seq, shiftedTable(t, uint64(300+seq), nDrifted, 1))
		seq++
	}
	m = scrapeProm(t, watched.URL)
	if ks := m[ksKey]; !(ks < 1) {
		t.Errorf("drift score did not recover after the swap: ks=%v", ks)
	}
	if st := m[stateKey]; st != float64(driftwatch.StateOK) && st != float64(driftwatch.StateSwapped) {
		t.Errorf("post-swap state = %v, want ok or swapped", st)
	}

	// The JSON dashboard view agrees with the exposition.
	jresp, err := http.Get(watched.URL + "/v1/metrics?plan=" + id)
	if err != nil {
		t.Fatal(err)
	}
	var jm struct {
		Driftwatch driftwatch.Snapshot `json:"driftwatch"`
	}
	if err := json.NewDecoder(jresp.Body).Decode(&jm); err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	if jm.Driftwatch.LastOutcome != driftwatch.OutcomeSwapped {
		t.Errorf("JSON driftwatch last_outcome = %q, want swapped", jm.Driftwatch.LastOutcome)
	}
	if jm.Driftwatch.Artefact != id {
		t.Errorf("JSON driftwatch artefact = %q, want %q", jm.Driftwatch.Artefact, id)
	}
}

// TestDriftLoopWithoutSourceRollsBack: an alarmed plan with no configured
// recalibration source must finish refit_failed and keep serving the
// incumbent — the alarm is exported, nothing breaks.
func TestDriftLoopWithoutSourceRollsBack(t *testing.T) {
	research, err := func() (*dataset.Table, error) {
		sampler, serr := simulate.NewSampler(simulate.Paper())
		if serr != nil {
			return nil, serr
		}
		return sampler.Table(rng.New(3), 400)
	}()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Design(research, core.Options{NQ: 30})
	if err != nil {
		t.Fatal(err)
	}
	store, err := planstore.Open(t.TempDir(), planstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := store.Put(plan)
	if err != nil {
		t.Fatal(err)
	}
	handler, err := NewServer(store, ServerOptions{
		Monitor:    monitor.Options{Window: 128, CheckEvery: 32},
		DriftWatch: &driftwatch.Config{AlarmAfter: 2, QuietAfter: 64},
		// RecalibrateFrom deliberately unset.
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	failKey := `otfair_recalibrations_total{outcome="refit_failed"}`
	deadline := time.Now().Add(30 * time.Second)
	var m map[string]float64
	for seq := 0; ; seq++ {
		resp := postCSV(t, fmt.Sprintf("%s/v1/repair?plan=%s&seed=%d&workers=1", srv.URL, id, seq),
			shiftedTable(t, uint64(400+seq), 400, 1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("repair during alarm: %s", resp.Status)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		m = scrapeProm(t, srv.URL)
		if m[failKey] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refit_failed never exported; state=%v", m[`otfair_drift_state{artefact="`+id+`"}`])
		}
	}
	if st := m[`otfair_drift_state{artefact="`+id+`"}`]; st != float64(driftwatch.StateRolledBack) {
		t.Errorf("state after failed refit = %v, want rolled_back", st)
	}
	// No swap happened: the ref namespace is untouched.
	resp, err := http.Get(srv.URL + "/v1/refs")
	if err != nil {
		t.Fatal(err)
	}
	var refsOut struct {
		Refs map[string]string `json:"refs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&refsOut); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(refsOut.Refs) != 0 {
		t.Errorf("refs after failed refit = %v, want none", refsOut.Refs)
	}
}

// TestDriftSeriesCardinalityBound: drift series carry artefact label values
// only from the store-resolved bound-plan set. Request-supplied garbage —
// well-formed fingerprints that do not exist, malformed ids — must never
// mint a series.
func TestDriftSeriesCardinalityBound(t *testing.T) {
	plan, _, archive := testData(t, 31, 300, 400, 30)
	store, err := planstore.Open(t.TempDir(), planstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := store.Put(plan)
	if err != nil {
		t.Fatal(err)
	}
	handler, err := NewServer(store, ServerOptions{DriftWatch: &driftwatch.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	// Bind the real plan, then attack with ids that must not bind.
	resp := postCSV(t, srv.URL+"/v1/repair?plan="+id+"&workers=1", archive)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repair: %s", resp.Status)
	}
	for _, bad := range []string{
		"ffffffffffffffffffffffffffffffff", // well-formed, absent
		"not-a-fingerprint",                // malformed
		"<script>alert(1)</script>",        // hostile
	} {
		r := postCSV(t, srv.URL+"/v1/repair?plan="+bad, archive)
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode == http.StatusOK {
			t.Fatalf("garbage plan id %q served", bad)
		}
	}

	got, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer got.Body.Close()
	samples, err := obs.ParseText(got.Body)
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	artefacts := map[string]bool{}
	for _, s := range samples {
		if s.Name == "otfair_drift_state" || s.Name == "otfair_drift_score" ||
			s.Name == "otfair_drift_transitions_total" {
			artefacts[s.Labels] = true
			if !strings.Contains(s.Labels, `artefact="`+id+`"`) {
				t.Errorf("drift series with artefact outside the bound set: %s{%s}", s.Name, s.Labels)
			}
		}
	}
	if len(artefacts) == 0 {
		t.Fatal("no drift series exported for the bound plan")
	}
}

// TestScrapeFreshnessAndBlindSeries: the artefact-age gauges and aggregated
// blind series are present and honest on a server that has stored plans but
// imputed nothing yet.
func TestScrapeFreshnessAndBlindSeries(t *testing.T) {
	plan, _, _ := testData(t, 32, 200, 50, 20)
	store, err := planstore.Open(t.TempDir(), planstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Put(plan); err != nil {
		t.Fatal(err)
	}
	handler, err := NewServer(store, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	m := scrapeProm(t, srv.URL)
	age, ok := m[`otfair_artefact_age_seconds{kind="plan"}`]
	if !ok {
		t.Fatal("plan artefact age series missing")
	}
	if math.IsNaN(age) || age < 0 || age > 300 {
		t.Errorf("plan artefact age = %v, want a small positive age", age)
	}
	calAge, ok := m[`otfair_artefact_age_seconds{kind="calibration"}`]
	if !ok {
		t.Fatal("calibration artefact age series missing")
	}
	if !math.IsNaN(calAge) {
		t.Errorf("empty calibration namespace age = %v, want NaN", calAge)
	}
	// Nothing imputed yet: the confidence gauges are honest NaNs, the
	// counters honest zeros.
	if v, ok := m["otfair_blind_mean_confidence"]; !ok || !math.IsNaN(v) {
		t.Errorf("blind mean confidence = %v (present %v), want NaN", v, ok)
	}
	if v := m["otfair_blind_imputed_total"]; v != 0 {
		t.Errorf("blind imputed = %v, want 0", v)
	}
	if _, ok := m[`otfair_blind_ambiguity_total{bin="0"}`]; !ok {
		t.Error("ambiguity histogram series missing")
	}
}

// TestDriftConfidenceScoreFoldsWorstCalibration: imputed traffic through
// two calibrations of one plan must reach the drift watcher, and the
// watcher's confidence score must be the worst calibration's
// |mean − research confidence| / ConfidenceAlarm.
func TestDriftConfidenceScoreFoldsWorstCalibration(t *testing.T) {
	plan, research, archive := testData(t, 33, 300, 600, 25)
	store, err := planstore.Open(t.TempDir(), planstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	planID, _, err := store.Put(plan)
	if err != nil {
		t.Fatal(err)
	}
	// A large ConfidenceAlarm and AlarmAfter keep the watcher out of the
	// refit loop: the test reads the score, not the reaction to it.
	const alarm = 4.0
	handler, err := NewServer(store, ServerOptions{DriftWatch: &driftwatch.Config{AlarmAfter: 1000, ConfidenceAlarm: alarm}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	// Two calibrations: the full research set and its second half, whose
	// research-time confidence baselines differ.
	half, err := dataset.NewTable(research.Dim(), research.Names())
	if err != nil {
		t.Fatal(err)
	}
	if err := half.AppendAll(research.Records()[research.Len()/2:]); err != nil {
		t.Fatal(err)
	}
	unlabelled := archive.DropS()
	calIDs := []string{fitOverHTTP(t, srv, planID, research), fitOverHTTP(t, srv, planID, half)}
	for _, calID := range calIDs {
		resp := postCSV(t, srv.URL+"/v1/repair?calibration="+calID+"&method=draw&seed=1&workers=1", unlabelled)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("repair with %s: %s", calID, resp.Status)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/metrics?plan=" + planID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Blind map[string]struct {
			Imputed         int64   `json:"imputed"`
			ConfidenceDrift float64 `json:"confidence_drift"`
		} `json:"blind"`
		DriftWatch driftwatch.Snapshot `json:"driftwatch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, calID := range calIDs {
		bm, ok := m.Blind[calID]
		if !ok || bm.Imputed != int64(unlabelled.Len()) {
			t.Fatalf("calibration %s: blind metrics %+v (present %v)", calID, bm, ok)
		}
		want = math.Max(want, math.Abs(bm.ConfidenceDrift)/alarm)
	}
	if want == 0 {
		t.Fatal("no confidence drift to fold; the scenario is degenerate")
	}
	if got := m.DriftWatch.ConfidenceScore; math.Abs(got-want) > 1e-12 {
		t.Errorf("confidence_score = %v, want the worst calibration's %v", got, want)
	}
}
