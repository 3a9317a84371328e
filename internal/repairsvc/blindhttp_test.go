package repairsvc

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"otfair/internal/blind"
	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/planstore"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// blindTestServer boots a server, stores the plan, and returns the ids plus
// the research/unlabelled-archive tables of the scenario.
func blindTestServer(t *testing.T, seed uint64, nR, nA, nq int) (srv *httptest.Server, planID string, research, unlabelled *dataset.Table, plan *core.Plan) {
	t.Helper()
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	research, archive, err := sampler.ResearchArchive(rng.New(seed), nR, nA)
	if err != nil {
		t.Fatal(err)
	}
	plan, err = core.Design(research, core.Options{NQ: nq})
	if err != nil {
		t.Fatal(err)
	}
	store, err := planstore.Open(t.TempDir(), planstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	planID, _, err = store.Put(plan)
	if err != nil {
		t.Fatal(err)
	}
	handler, err := NewServer(store, ServerOptions{MetricWindow: 4096})
	if err != nil {
		t.Fatal(err)
	}
	srv = httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	return srv, planID, research, archive.DropS(), plan
}

// fitOverHTTP posts the research CSV to /v1/calibrations and returns the id.
func fitOverHTTP(t *testing.T, srv *httptest.Server, planID string, research *dataset.Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := research.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/calibrations?plan="+planID, "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("calibration fit: %s: %s", resp.Status, body)
	}
	var fit struct {
		ID                 string  `json:"id"`
		Plan               string  `json:"plan"`
		ResearchConfidence float64 `json:"research_confidence"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fit); err != nil {
		t.Fatal(err)
	}
	if fit.Plan != planID {
		t.Fatalf("calibration bound to plan %s, want %s", fit.Plan, planID)
	}
	if !(fit.ResearchConfidence > 0.5 && fit.ResearchConfidence <= 1) {
		t.Fatalf("research confidence %v outside (0.5, 1]", fit.ResearchConfidence)
	}
	return fit.ID
}

// TestServeBlindRepairByteIdentical is the blind serve-path equivalence
// test: POST /v1/repair with calibration=<id>, workers=1 and a fixed seed
// produces byte-identical output to the in-process blind.Repairer at the
// same seed — fit → store → serve → blind-repair equals fit → blind-repair
// — for every blind method.
func TestServeBlindRepairByteIdentical(t *testing.T) {
	srv, planID, research, unlabelled, plan := blindTestServer(t, 61, 300, 1500, 40)
	calID := fitOverHTTP(t, srv, planID, research)

	for _, method := range []string{"hard", "draw", "mix", "pooled"} {
		url := srv.URL + "/v1/repair?calibration=" + calID + "&method=" + method + "&seed=19&workers=1"
		resp := postCSV(t, url, unlabelled)
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("%s: %s: %s", method, resp.Status, body)
		}
		served, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}

		m, err := blind.ParseMethod(method)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := blind.New(plan, research, rng.New(19), blind.Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.RepairTable(unlabelled)
		if err != nil {
			t.Fatal(err)
		}
		var wantCSV bytes.Buffer
		if err := want.WriteCSV(&wantCSV); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served, wantCSV.Bytes()) {
			t.Fatalf("method %s: served bytes differ from in-process blind repair (%d vs %d bytes)", method, len(served), wantCSV.Len())
		}
	}
}

// TestServeBlindNDJSONAndMetrics round-trips an unlabelled NDJSON stream
// (null s both directions) and checks the per-calibration blind telemetry
// lands in /v1/metrics.
func TestServeBlindNDJSONAndMetrics(t *testing.T) {
	srv, planID, research, unlabelled, _ := blindTestServer(t, 62, 250, 800, 30)
	calID := fitOverHTTP(t, srv, planID, research)

	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	for i := 0; i < unlabelled.Len(); i++ {
		rec := unlabelled.At(i)
		if err := enc.Encode(wireRecord{X: rec.X, U: rec.U}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/repair?calibration="+calID+"&method=draw&seed=1&format=ndjson",
		"application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("blind ndjson repair: %s: %s", resp.Status, body)
	}
	dec := json.NewDecoder(resp.Body)
	n := 0
	for {
		var wr wireRecord
		if err := dec.Decode(&wr); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if wr.S != nil {
			t.Fatal("blind repair invented an s label")
		}
		if len(wr.X) != unlabelled.Dim() {
			t.Fatalf("record %d has %d features", n, len(wr.X))
		}
		n++
	}
	if n != unlabelled.Len() {
		t.Fatalf("round-tripped %d of %d records", n, unlabelled.Len())
	}

	resp, err = http.Get(srv.URL + "/v1/metrics?plan=" + planID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Blind map[string]struct {
			Records            int64   `json:"records"`
			Imputed            int64   `json:"imputed"`
			LabelsUsed         int64   `json:"labels_used"`
			MeanConfidence     float64 `json:"mean_confidence"`
			ResearchConfidence float64 `json:"research_confidence"`
			ConfidenceDrift    float64 `json:"confidence_drift"`
			AmbiguityHistogram []int64 `json:"ambiguity_histogram"`
		} `json:"blind"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	bm, ok := m.Blind[calID]
	if !ok {
		t.Fatalf("metrics carry no blind section for calibration %s (got %v)", calID, m.Blind)
	}
	if bm.Records != int64(unlabelled.Len()) || bm.Imputed != int64(unlabelled.Len()) || bm.LabelsUsed != 0 {
		t.Errorf("blind counters %+v, want all %d records imputed", bm, unlabelled.Len())
	}
	if !(bm.MeanConfidence > 0.5 && bm.MeanConfidence <= 1) {
		t.Errorf("mean confidence %v outside (0.5, 1]", bm.MeanConfidence)
	}
	if bm.ConfidenceDrift != bm.MeanConfidence-bm.ResearchConfidence {
		t.Errorf("drift %v != mean %v - research %v", bm.ConfidenceDrift, bm.MeanConfidence, bm.ResearchConfidence)
	}
	var hist int64
	for _, c := range bm.AmbiguityHistogram {
		hist += c
	}
	if hist != bm.Imputed {
		t.Errorf("ambiguity histogram mass %d != imputed %d", hist, bm.Imputed)
	}
}

// TestBoundBlindEngineEviction checks that the per-plan blind-engine tier
// is LRU-bounded: touching more calibrations than MaxBoundCalibrations
// evicts the coldest, and evicted calibrations rebind transparently.
func TestBoundBlindEngineEviction(t *testing.T) {
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	research, archive, err := sampler.ResearchArchive(rng.New(64), 250, 40)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Design(research, core.Options{NQ: 20})
	if err != nil {
		t.Fatal(err)
	}
	store, err := planstore.Open(t.TempDir(), planstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	planID, _, err := store.Put(plan)
	if err != nil {
		t.Fatal(err)
	}
	handler, err := NewServer(store, ServerOptions{MaxBoundCalibrations: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	unlabelled := archive.DropS()

	// Three distinct calibrations for one plan (different research
	// subsets hash to different fingerprints).
	var calIDs []string
	for drop := 0; drop < 3; drop++ {
		sub, err := dataset.NewTable(research.Dim(), research.Names())
		if err != nil {
			t.Fatal(err)
		}
		for i := drop; i < research.Len(); i++ {
			if err := sub.Append(research.At(i)); err != nil {
				t.Fatal(err)
			}
		}
		calIDs = append(calIDs, fitOverHTTP(t, srv, planID, sub))
	}
	for _, calID := range calIDs {
		resp := postCSV(t, srv.URL+"/v1/repair?calibration="+calID+"&seed=1&workers=1", unlabelled)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("repair with %s: %s", calID, resp.Status)
		}
	}
	ps, err := handler.state(planID)
	if err != nil {
		t.Fatal(err)
	}
	ps.mu.Lock()
	bound := len(ps.blind)
	ps.mu.Unlock()
	if bound != 2 {
		t.Errorf("bound blind engines = %d, want 2", bound)
	}
	// The evicted calibration rebinds transparently.
	resp := postCSV(t, srv.URL+"/v1/repair?calibration="+calIDs[0]+"&seed=1&workers=1", unlabelled)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("rebind after eviction: %s", resp.Status)
	}
}

// TestCalibrationLifecycleOverHTTP covers upload dedup, listing, download
// and the error paths of the calibration surface.
func TestCalibrationLifecycleOverHTTP(t *testing.T) {
	srv, planID, research, unlabelled, plan := blindTestServer(t, 63, 250, 50, 25)
	calID := fitOverHTTP(t, srv, planID, research)

	// Download is the canonical bytes; re-uploading dedupes.
	resp, err := http.Get(srv.URL + "/v1/calibrations/" + calID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	cal, err := blind.NewCalibration(plan, research)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cal.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Error("downloaded calibration differs from a local fit's canonical bytes")
	}
	resp, err = http.Post(srv.URL+"/v1/calibrations", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var up struct {
		ID      string `json:"id"`
		Existed bool   `json:"existed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if up.ID != calID || !up.Existed {
		t.Errorf("upload: id=%s existed=%v, want %s/true", up.ID, up.Existed, calID)
	}

	// Listing.
	resp, err = http.Get(srv.URL + "/v1/calibrations")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Calibrations []string `json:"calibrations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Calibrations) != 1 || list.Calibrations[0] != calID {
		t.Errorf("calibrations = %v", list.Calibrations)
	}

	// Unlabelled repair without a calibration must fail loudly, not 200.
	resp = postCSV(t, srv.URL+"/v1/repair?plan="+planID+"&seed=1&workers=1", unlabelled)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("unlabelled stream repaired without a calibration")
	}

	// Mismatched plan/calibration pairs are rejected up front as a
	// conflict, and so is an upload naming a conflicting ?plan=.
	resp = postCSV(t, srv.URL+"/v1/repair?plan=ffffffffffffffffffffffffffffffff&calibration="+calID, unlabelled)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("calibration against a foreign plan id: %s, want 409", resp.Status)
	}
	resp, err = http.Post(srv.URL+"/v1/calibrations?plan=ffffffffffffffffffffffffffffffff", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("upload with conflicting plan parameter: %s, want 409", resp.Status)
	}

	// Unknown calibration, missing plan on fit, bad method.
	resp, err = http.Get(srv.URL + "/v1/calibrations/ffffffffffffffffffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown calibration: %s, want 404", resp.Status)
	}
	resp = postCSV(t, srv.URL+"/v1/calibrations", research)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("fit without plan: %s, want 400", resp.Status)
	}
	resp = postCSV(t, srv.URL+"/v1/repair?calibration="+calID+"&method=nonsense", unlabelled)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad method: %s, want 400", resp.Status)
	}
}
