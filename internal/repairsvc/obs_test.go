package repairsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"otfair/internal/blind"
	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/obs"
	"otfair/internal/planstore"
	"otfair/internal/rng"
	"otfair/internal/shardrun"
)

// newObsTestServer boots a server with the given observability options and
// returns the test server, the stored plan id, and the Server itself.
func newObsTestServer(t *testing.T, plan *core.Plan, opts ServerOptions) (*httptest.Server, string, *Server) {
	t.Helper()
	store, err := planstore.Open(t.TempDir(), planstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := store.Put(plan)
	if err != nil {
		t.Fatal(err)
	}
	handler, err := NewServer(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	return srv, id, handler
}

// sampleMap indexes parsed exposition samples by series key.
func sampleMap(samples []obs.Sample) map[string]float64 {
	m := make(map[string]float64, len(samples))
	for _, s := range samples {
		m[s.Key()] = s.Value
	}
	return m
}

// TestPrometheusEndpoint runs a repair and asserts GET /metrics serves
// parseable exposition text carrying the acceptance-criteria series:
// request latency by route, per-stage spans, shard runner timings, store
// read latencies, and the records counter.
func TestPrometheusEndpoint(t *testing.T) {
	plan, _, archive := testData(t, 31, 250, 800, 30)
	srv, id, _ := newObsTestServer(t, plan, ServerOptions{MetricWindow: 1024})

	resp := postCSV(t, srv.URL+"/v1/repair?plan="+id+"&seed=3", archive)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repair: %s", resp.Status)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", mresp.Status)
	}
	if ct := mresp.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.TextContentType)
	}
	samples, err := obs.ParseText(mresp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	m := sampleMap(samples)

	if got := m[`otfair_repair_records_total`]; got != float64(archive.Len()) {
		t.Errorf("otfair_repair_records_total = %v, want %d", got, archive.Len())
	}
	if got := m[`otfair_http_request_seconds_count{route="repair"}`]; got != 1 {
		t.Errorf("repair route request count = %v, want 1", got)
	}
	if got := m[`otfair_repair_stage_seconds_count{stage="shard_execute"}`]; got < 1 {
		t.Errorf("shard_execute stage count = %v, want >= 1", got)
	}
	if got := m[`otfair_repair_stage_seconds_count{stage="spool"}`]; got < 1 {
		t.Errorf("spool stage count = %v, want >= 1", got)
	}
	if got := m[`otfair_shards_total`]; got < 1 {
		t.Errorf("otfair_shards_total = %v, want >= 1", got)
	}
	if got := m[`otfair_shard_seconds_count`]; got < 1 {
		t.Errorf("otfair_shard_seconds_count = %v, want >= 1", got)
	}
	// Read-latency series exist for both namespaces even before a cold read.
	for _, key := range []string{
		`otfair_store_read_seconds_count{store="plan"}`,
		`otfair_store_read_seconds_count{store="calibration"}`,
		`otfair_build_info`,
	} {
		if _, ok := m[key]; !ok && key != "otfair_build_info" {
			t.Errorf("series %s missing from exposition", key)
		}
	}
	// build info carries labels; find it by family.
	var foundBuild bool
	for _, s := range samples {
		if s.Name == "otfair_build_info" {
			foundBuild = true
			if s.Value != 1 {
				t.Errorf("otfair_build_info = %v, want 1", s.Value)
			}
		}
	}
	if !foundBuild {
		t.Error("otfair_build_info missing from exposition")
	}
}

// TestMetricsJSONPlanOptional pins the /v1/metrics contract: server-wide
// sections without ?plan=, plan sections appended with it, and an explicit
// JSON content type either way.
func TestMetricsJSONPlanOptional(t *testing.T) {
	plan, _, archive := testData(t, 32, 200, 300, 25)
	srv, id, _ := newObsTestServer(t, plan, ServerOptions{MetricWindow: 1024})
	resp := postCSV(t, srv.URL+"/v1/repair?plan="+id+"&seed=1&workers=1", archive)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	get := func(url string) map[string]any {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s", url, resp.Status)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q, want application/json", ct)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	wide := get(srv.URL + "/v1/metrics")
	for _, key := range []string{"observability", "resilience", "store", "calibration_store", "design_cache"} {
		if _, ok := wide[key]; !ok {
			t.Errorf("server-wide metrics missing %q", key)
		}
	}
	if _, ok := wide["engine"]; ok {
		t.Error("server-wide metrics should not carry plan sections")
	}
	ob, ok := wide["observability"].(map[string]any)
	if !ok {
		t.Fatal("observability section has wrong shape")
	}
	if _, ok := ob["stage_seconds"]; !ok {
		t.Error("observability missing stage_seconds")
	}

	planned := get(srv.URL + "/v1/metrics?plan=" + id)
	for _, key := range []string{"engine", "drift", "metric", "blind", "observability"} {
		if _, ok := planned[key]; !ok {
			t.Errorf("plan metrics missing %q", key)
		}
	}
}

func TestBuildInfoEndpoint(t *testing.T) {
	plan, _, _ := testData(t, 33, 150, 100, 20)
	srv, _, _ := newObsTestServer(t, plan, ServerOptions{})
	resp, err := http.Get(srv.URL + "/v1/buildinfo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/buildinfo: %s", resp.Status)
	}
	var out struct {
		Version  string `json:"version"`
		Go       string `json:"go"`
		Revision string `json:"revision"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.Go, "go1") {
		t.Errorf("go = %q, want a go1.x version", out.Go)
	}
	if out.Version == "" || out.Revision == "" {
		t.Errorf("empty identity fields: %+v", out)
	}
}

// syncBuffer makes a bytes.Buffer safe for the slog handler, which may be
// written from request goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowRequestTrackingAndLogging turns the slow threshold down to a
// nanosecond so every repair lands in the slow ring, and checks the ring
// surfaces through /v1/metrics with 32-hex request IDs that also appear in
// the structured log.
func TestSlowRequestTrackingAndLogging(t *testing.T) {
	plan, _, archive := testData(t, 34, 200, 300, 25)
	var logBuf syncBuffer
	srv, id, _ := newObsTestServer(t, plan, ServerOptions{
		MetricWindow: 1024,
		SlowRequest:  time.Nanosecond,
		TraceSample:  1,
		Logger:       slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	resp := postCSV(t, srv.URL+"/v1/repair?plan="+id+"&seed=2&workers=1", archive)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repair: %s", resp.Status)
	}

	mresp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var out struct {
		Observability struct {
			SlowTotal    uint64 `json:"slow_requests_total"`
			SlowRequests []struct {
				RequestID string            `json:"request_id"`
				Total     string            `json:"total"`
				Stages    map[string]string `json:"stages"`
				Detail    string            `json:"detail"`
			} `json:"slow_requests"`
		} `json:"observability"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Observability.SlowTotal < 1 || len(out.Observability.SlowRequests) < 1 {
		t.Fatalf("slow requests not recorded: total=%d ring=%d",
			out.Observability.SlowTotal, len(out.Observability.SlowRequests))
	}
	sr := out.Observability.SlowRequests[len(out.Observability.SlowRequests)-1]
	if !regexp.MustCompile(`^[0-9a-f]{32}$`).MatchString(sr.RequestID) {
		t.Errorf("request id %q is not 32 hex chars", sr.RequestID)
	}
	if _, ok := sr.Stages["shard_execute"]; !ok {
		t.Errorf("slow record missing shard_execute stage: %v", sr.Stages)
	}
	// Sampled at 1: the decode span and the nested monitor tap were timed
	// per record.
	for _, stage := range []string{"decode", "monitor"} {
		if _, ok := sr.Stages[stage]; !ok {
			t.Errorf("sampled slow record missing %s stage: %v", stage, sr.Stages)
		}
	}
	if !strings.Contains(sr.Detail, "plan="+id) {
		t.Errorf("detail %q missing plan fingerprint", sr.Detail)
	}

	logs := logBuf.String()
	if !strings.Contains(logs, sr.RequestID) {
		t.Errorf("request id %s absent from logs:\n%s", sr.RequestID, logs)
	}
	if !strings.Contains(logs, `"level":"WARN"`) || !strings.Contains(logs, "repair request") {
		t.Errorf("slow repair not logged at Warn:\n%s", logs)
	}
	if !strings.Contains(logs, `"component":"repairsvc"`) {
		t.Errorf("log lines missing component key:\n%s", logs)
	}
}

// TestEngineObsAllocDelta pins the instrumentation overhead contract at
// the engine level: repairing with a bound shardrun.Obs performs no
// per-record allocations beyond the uninstrumented engine. The serial path
// is the tightest one — every record flows through the instrumented
// Isolated call.
func TestEngineObsAllocDelta(t *testing.T) {
	plan, _, archive := testData(t, 35, 200, 2000, 30)
	run := func(o *shardrun.Obs) float64 {
		engine, err := NewEngine(plan, Options{Workers: 1, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(7)
		sink := func(_, _ []dataset.Record) error { return nil }
		return testing.AllocsPerRun(3, func() {
			in := dataset.NewSliceStream(archive)
			if _, _, _, err := engine.RepairStreamContext(context.Background(), r, blind.MethodHard, in, sink); err != nil {
				t.Fatal(err)
			}
		})
	}
	o := &shardrun.Obs{
		ShardSeconds: obs.NewHistogram(obs.DefLatencyBuckets()),
		Shards:       &obs.Counter{},
		Panics:       &obs.Counter{},
	}
	plain := run(nil)
	instrumented := run(o)
	// Any fixed per-run overhead is fine; per-record overhead is not. With
	// 2000 records, even 1/100 alloc per record dwarfs run-constant noise.
	if delta := instrumented - plain; delta > float64(archive.Len())/100 {
		t.Fatalf("instrumented repair allocates %.1f more per run than plain (%.1f vs %.1f) over %d records",
			delta, instrumented, plain, archive.Len())
	}
	if o.Shards.Load() == 0 {
		t.Fatal("instrumented run recorded no shards")
	}
}
