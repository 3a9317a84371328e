package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"

	"otfair/internal/blind"
	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/fairmetrics"
	"otfair/internal/obs"
	"otfair/internal/planstore"
	"otfair/internal/repairsvc"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// runSmoke is the `make serve-smoke` body: the complete design → store →
// serve → repair round trip against a real HTTP listener, checked for
// byte-equivalence with the in-process library path and for an actual
// fairness improvement in the E metric.
func runSmoke() error {
	const (
		seed      = uint64(7)
		nResearch = 400
		nArchive  = 4000
	)
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		return err
	}
	research, archive, err := sampler.ResearchArchive(rng.New(seed), nResearch, nArchive)
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "fairserved-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := planstore.Open(dir, planstore.Options{})
	if err != nil {
		return err
	}
	// Tracing on at full sample so the smoke exercises the instrumented
	// paths it later scrapes.
	handler, err := repairsvc.NewServer(store, repairsvc.ServerOptions{MetricWindow: nArchive, TraceSample: 1})
	if err != nil {
		return err
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	// Design over HTTP.
	var researchCSV bytes.Buffer
	if err := research.WriteCSV(&researchCSV); err != nil {
		return err
	}
	resp, err := http.Post(srv.URL+"/v1/plans?nq=50", "text/csv", &researchCSV)
	if err != nil {
		return err
	}
	var designed struct {
		ID  string `json:"id"`
		Dim int    `json:"dim"`
	}
	if err := decodeJSON(resp, &designed); err != nil {
		return fmt.Errorf("design: %w", err)
	}
	fmt.Printf("designed plan %s (dim %d)\n", designed.ID, designed.Dim)

	// Repair over HTTP, single worker for byte-equivalence.
	var archiveCSV bytes.Buffer
	if err := archive.WriteCSV(&archiveCSV); err != nil {
		return err
	}
	served, err := postRepair(srv.URL+"/v1/repair?plan="+designed.ID+"&seed=1&workers=1", "text/csv", &archiveCSV)
	if err != nil {
		return err
	}

	// In-process reference: same plan (reloaded from the store), same seed.
	plan, err := store.Get(designed.ID)
	if err != nil {
		return err
	}
	rp, err := core.NewRepairer(plan, rng.New(1), core.RepairOptions{})
	if err != nil {
		return err
	}
	reference, err := rp.RepairTable(archive)
	if err != nil {
		return err
	}
	var refCSV bytes.Buffer
	if err := reference.WriteCSV(&refCSV); err != nil {
		return err
	}
	if !bytes.Equal(served, refCSV.Bytes()) {
		return fmt.Errorf("serve path diverged from in-process repair (%d vs %d bytes)", len(served), refCSV.Len())
	}
	fmt.Printf("serve path byte-identical to in-process repair (%d records, %d bytes)\n", archive.Len(), len(served))

	// The repaired archive must measure substantially fairer.
	repaired, err := dataset.ReadCSV(bytes.NewReader(served))
	if err != nil {
		return err
	}
	cfg := fairmetrics.Config{Estimator: fairmetrics.EstimatorPlugin}
	before, err := fairmetrics.E(archive, cfg)
	if err != nil {
		return err
	}
	after, err := fairmetrics.E(repaired, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("E metric: %.4f -> %.4f\n", before, after)
	if !(after < before/3) {
		return fmt.Errorf("repair too weak: E %.4f -> %.4f", before, after)
	}

	// Metrics endpoint answers and carries the counters.
	resp, err = http.Get(srv.URL + "/v1/metrics?plan=" + designed.ID)
	if err != nil {
		return err
	}
	var metrics struct {
		Engine struct {
			Records int64 `json:"records"`
		} `json:"engine"`
	}
	if err := decodeJSON(resp, &metrics); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if metrics.Engine.Records != int64(archive.Len()) {
		return fmt.Errorf("metrics records = %d, want %d", metrics.Engine.Records, archive.Len())
	}
	fmt.Printf("metrics endpoint: %d records served\n", metrics.Engine.Records)

	if err := blindSmoke(srv, store, designed.ID, research, archive); err != nil {
		return err
	}
	return scrapeSmoke(srv, 2*archive.Len())
}

// scrapeSmoke is the observability leg: GET /metrics must serve exposition
// text that parses and carries the key series with values consistent with
// the traffic the smoke test just generated (two repair requests totalling
// wantRecords records).
func scrapeSmoke(srv *httptest.Server, wantRecords int) error {
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.TextContentType {
		return fmt.Errorf("/metrics Content-Type = %q, want %q", ct, obs.TextContentType)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		return fmt.Errorf("/metrics does not parse: %w", err)
	}
	m := make(map[string]float64, len(samples))
	for _, s := range samples {
		m[s.Key()] = s.Value
	}
	if got := m["otfair_repair_records_total"]; got != float64(wantRecords) {
		return fmt.Errorf("otfair_repair_records_total = %v, want %d", got, wantRecords)
	}
	if got := m[`otfair_http_request_seconds_count{route="repair"}`]; got != 2 {
		return fmt.Errorf(`repair route request count = %v, want 2`, got)
	}
	for _, key := range []string{
		`otfair_repair_stage_seconds_count{stage="shard_execute"}`,
		`otfair_repair_stage_seconds_count{stage="decode"}`,
		`otfair_shard_seconds_count`,
		`otfair_shards_total`,
	} {
		if m[key] < 1 {
			return fmt.Errorf("series %s = %v, want >= 1", key, m[key])
		}
	}
	fmt.Printf("prometheus scrape: %d samples parsed, %d records accounted\n", len(samples), wantRecords)
	return nil
}

// blindSmoke is the s-unlabelled leg of the smoke test: fit a calibration
// over HTTP from the research CSV, blind-repair the archive with its s
// labels stripped through an NDJSON round trip, verify byte-equivalence
// with the in-process blind repairer at the same seed, and check the blind
// telemetry reaches /v1/metrics.
func blindSmoke(srv *httptest.Server, store *planstore.Store, planID string, research, archive *dataset.Table) error {
	// Fit the calibration over HTTP.
	var researchCSV bytes.Buffer
	if err := research.WriteCSV(&researchCSV); err != nil {
		return err
	}
	resp, err := http.Post(srv.URL+"/v1/calibrations?plan="+planID, "text/csv", &researchCSV)
	if err != nil {
		return err
	}
	var fitted struct {
		ID                 string  `json:"id"`
		Plan               string  `json:"plan"`
		ResearchConfidence float64 `json:"research_confidence"`
	}
	if err := decodeJSON(resp, &fitted); err != nil {
		return fmt.Errorf("calibration fit: %w", err)
	}
	if fitted.Plan != planID {
		return fmt.Errorf("calibration bound to plan %s, want %s", fitted.Plan, planID)
	}
	fmt.Printf("fitted calibration %s (research confidence %.3f)\n", fitted.ID, fitted.ResearchConfidence)

	// Blind-repair the unlabelled archive over NDJSON, single worker for
	// byte-equivalence. The wire shape is the server's: a null s marks an
	// unknown protected attribute, both directions.
	type wire struct {
		X []float64 `json:"x"`
		S *int      `json:"s"`
		U int       `json:"u"`
	}
	writeNDJSON := func(t *dataset.Table) (*bytes.Buffer, error) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, rec := range t.Records() {
			wr := wire{X: rec.X, U: rec.U}
			if rec.S != dataset.SUnknown {
				wr.S = &rec.S
			}
			if err := enc.Encode(wr); err != nil {
				return nil, err
			}
		}
		return &buf, nil
	}
	unlabelled := archive.DropS()
	in, err := writeNDJSON(unlabelled)
	if err != nil {
		return err
	}
	served, err := postRepair(srv.URL+"/v1/repair?calibration="+fitted.ID+"&method=draw&seed=2&workers=1&format=ndjson",
		"application/x-ndjson", in)
	if err != nil {
		return fmt.Errorf("blind %w", err)
	}

	// In-process reference: same plan (reloaded from the store), same
	// research fit, same seed and method.
	plan, err := store.Get(planID)
	if err != nil {
		return err
	}
	brp, err := blind.New(plan, research, rng.New(2), blind.Options{Method: blind.MethodDraw})
	if err != nil {
		return err
	}
	reference, err := brp.RepairTable(unlabelled)
	if err != nil {
		return err
	}
	want, err := writeNDJSON(reference)
	if err != nil {
		return err
	}
	if !bytes.Equal(served, want.Bytes()) {
		return fmt.Errorf("blind serve path diverged from in-process blind repair (%d vs %d bytes)", len(served), want.Len())
	}
	fmt.Printf("blind serve path byte-identical to in-process blind repair (%d records)\n", reference.Len())

	// The blind repair must still quench most of the measured unfairness,
	// judged against the ground-truth labels the server never saw.
	relabelled := reference.Clone()
	for i := range relabelled.Records() {
		relabelled.Records()[i].S = archive.At(i).S
	}
	cfg := fairmetrics.Config{Estimator: fairmetrics.EstimatorPlugin}
	before, err := fairmetrics.E(archive, cfg)
	if err != nil {
		return err
	}
	after, err := fairmetrics.E(relabelled, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("blind E metric (true labels): %.4f -> %.4f\n", before, after)
	if !(after < before/2) {
		return fmt.Errorf("blind repair too weak: E %.4f -> %.4f", before, after)
	}

	// Per-calibration telemetry present and consistent.
	resp, err = http.Get(srv.URL + "/v1/metrics?plan=" + planID)
	if err != nil {
		return err
	}
	var metrics struct {
		Blind map[string]struct {
			Imputed        int64   `json:"imputed"`
			MeanConfidence float64 `json:"mean_confidence"`
		} `json:"blind"`
	}
	if err := decodeJSON(resp, &metrics); err != nil {
		return fmt.Errorf("blind metrics: %w", err)
	}
	bm, ok := metrics.Blind[fitted.ID]
	if !ok {
		return fmt.Errorf("metrics carry no blind section for calibration %s", fitted.ID)
	}
	if bm.Imputed != int64(unlabelled.Len()) {
		return fmt.Errorf("blind metrics imputed = %d, want %d", bm.Imputed, unlabelled.Len())
	}
	if !(bm.MeanConfidence > 0.5 && bm.MeanConfidence <= 1) {
		return fmt.Errorf("blind mean confidence %v outside (0.5, 1]", bm.MeanConfidence)
	}
	fmt.Printf("blind metrics: %d records imputed at mean confidence %.3f\n", bm.Imputed, bm.MeanConfidence)
	return nil
}

// postRepair posts a repair request and returns the response body, or an
// error carrying the status and server message on a non-200.
func postRepair(url, contentType string, body io.Reader) ([]byte, error) {
	resp, err := http.Post(url, contentType, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("repair: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	return io.ReadAll(resp.Body)
}

func decodeJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
