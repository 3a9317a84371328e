package repairsvc

// HTTP-level resilience tests: mid-stream client disconnects (both
// engines, both wire formats), admission-gate shedding, per-request
// deadlines, panic isolation, store quarantine surfacing, and drain.
// Each scenario asserts three things: the typed status the client sees,
// the resilience counters the operator sees, and that the process keeps
// nothing behind (goroutines, spool files).

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/faultinject"
	"otfair/internal/planstore"
)

// leakCheck fails the test if the goroutine count has not returned to
// its baseline once every cleanup registered after it has run. Register
// it BEFORE starting servers: t.Cleanup is LIFO, so this check runs
// after httptest.Server.Close has reaped the handler goroutines.
func leakCheck(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("goroutine leak: %d at start, %d after cleanup\n%s",
					base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
}

// spoolDirCheck points the spool at a fresh directory and fails the test
// if any spool file survives it.
func spoolDirCheck(t *testing.T) {
	t.Helper()
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	t.Cleanup(func() {
		left, err := filepath.Glob(filepath.Join(dir, "fairserved-repair-*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) > 0 {
			t.Errorf("spool files left behind: %v", left)
		}
	})
}

// resilienceServer boots a server with the given options over a fresh
// store holding plan.
func resilienceServer(t *testing.T, plan *core.Plan, opts ServerOptions) (*httptest.Server, *Server, string) {
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
	return srv, handler, id
}

func tableCSV(t *testing.T, tbl *dataset.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func tableNDJSON(t *testing.T, tbl *dataset.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < tbl.Len(); i++ {
		rec := tbl.At(i)
		wr := wireRecord{X: rec.X, U: rec.U}
		if rec.S != dataset.SUnknown {
			s := rec.S
			wr.S = &s
		}
		if err := enc.Encode(wr); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// resilienceMetrics fetches the /v1/metrics resilience section.
func resilienceMetrics(t *testing.T, srv *httptest.Server, planID string) map[string]any {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/metrics?plan=" + planID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Resilience map[string]any `json:"resilience"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Resilience
}

// waitCounter polls the resilience section until key reaches at least
// want (counters are updated after the handler unwinds, which races the
// client observing the aborted transfer).
func waitCounter(t *testing.T, srv *httptest.Server, planID, key string, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		res := resilienceMetrics(t, srv, planID)
		if v, _ := res[key].(float64); v >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("resilience[%q] never reached %v: %v", key, want, resilienceMetrics(t, srv, planID))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMidStreamDisconnect: a client that goes away mid-response aborts
// the repair promptly on every engine × format combination; the handler
// unwinds (no goroutine leak), the spool is reclaimed, and the
// disconnect is counted. The shard.slow fault, consulted before every
// span of the serial stream, paces the server so the cancel always lands
// while spans remain — without it the repair could finish before the
// disconnect is seen, and the test would assert nothing.
func TestMidStreamDisconnect(t *testing.T) {
	leakCheck(t)
	spoolDirCheck(t)

	plan, research, archive := testData(t, 31, 250, 12500, 30)
	inj := faultinject.New(1).Set(faultinject.ShardSlow, faultinject.Rule{Every: 1, Delay: 200 * time.Millisecond})
	srv, _, planID := resilienceServer(t, plan, ServerOptions{MetricWindow: 4096, Fault: inj})
	calID := fitOverHTTP(t, srv, planID, research)
	unlabelled := archive.DropS()

	cases := []struct {
		name        string
		query       string
		contentType string
		body        []byte
	}{
		{"labelled-csv", "plan=" + planID + "&seed=3", "text/csv", tableCSV(t, archive)},
		{"labelled-ndjson", "plan=" + planID + "&seed=3&format=ndjson", "application/x-ndjson", tableNDJSON(t, archive)},
		{"blind-csv", "calibration=" + calID + "&method=hard&seed=3", "text/csv", tableCSV(t, unlabelled)},
		{"blind-ndjson", "calibration=" + calID + "&method=hard&seed=3&format=ndjson", "application/x-ndjson", tableNDJSON(t, unlabelled)},
	}
	disconnects := 0.0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/repair?"+tc.query, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", tc.contentType)
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatalf("response never started: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("repair: %s: %s", resp.Status, body)
			}
			// Read a little of the stream, then vanish.
			if _, err := io.ReadFull(resp.Body, make([]byte, 512)); err != nil {
				t.Fatalf("reading stream prefix: %v", err)
			}
			cancel()
			if _, err := io.Copy(io.Discard, resp.Body); err == nil {
				t.Error("disconnected transfer completed cleanly — the abort was not surfaced")
			}
			disconnects++
			waitCounter(t, srv, planID, "disconnects", disconnects)
		})
	}
}

// TestAdmissionGateShedsConcurrent: with a one-request budget, a second
// repair is refused with 429 + Retry-After while the first is still
// uploading, and admitted again once the slot frees.
func TestAdmissionGateShedsConcurrent(t *testing.T) {
	leakCheck(t)
	plan, _, archive := testData(t, 32, 250, 600, 30)
	srv, _, planID := resilienceServer(t, plan, ServerOptions{MetricWindow: 4096, MaxInflight: 1})
	body := tableCSV(t, archive)
	url := srv.URL + "/v1/repair?plan=" + planID + "&seed=1&workers=1"

	// First request: hold the slot by holding the upload open.
	pr, pw := io.Pipe()
	type result struct {
		status int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(url, "text/csv", pr)
		if err != nil {
			done <- result{0, err}
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		done <- result{resp.StatusCode, nil}
	}()
	if _, err := pw.Write(body[:16]); err != nil {
		t.Fatal(err)
	}
	// The write above only returns once the handler is consuming the
	// body, which is past the gate: the slot is held.

	resp, err := http.Post(url, "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	shedBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload request: %s: %s, want 429", resp.Status, shedBody)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After hint")
	}

	// Finish the first upload; its repair completes normally.
	if _, err := pw.Write(body[16:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	first := <-done
	if first.err != nil || first.status != http.StatusOK {
		t.Fatalf("held request finished with (%d, %v), want 200", first.status, first.err)
	}

	// Slot free again: the next request is admitted.
	resp2, err := http.Post(url, "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-drain request: %s, want 200", resp2.Status)
	}
	if res := resilienceMetrics(t, srv, planID); res["shed"].(float64) != 1 {
		t.Errorf("shed counter = %v, want 1", res["shed"])
	}
}

// TestQueuedBytesBudgetSheds: a spool budget smaller than one
// reservation chunk sheds every repair upload with 429.
func TestQueuedBytesBudgetSheds(t *testing.T) {
	plan, _, archive := testData(t, 33, 250, 400, 30)
	srv, _, planID := resilienceServer(t, plan, ServerOptions{MetricWindow: 4096, MaxQueuedBytes: 1024})
	resp, err := http.Post(srv.URL+"/v1/repair?plan="+planID+"&seed=1", "text/csv", bytes.NewReader(tableCSV(t, archive)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("spool over budget: %s, want 429", resp.Status)
	}
	if res := resilienceMetrics(t, srv, planID); res["shed"].(float64) != 1 {
		t.Errorf("shed counter = %v, want 1", res["shed"])
	}
}

// TestDeadlineExceededBeforeFirstByte: a request budget the repair
// cannot meet answers a clean 503 when nothing has been sent, and is
// counted. The slow fault makes the overrun deterministic.
func TestDeadlineExceededBeforeFirstByte(t *testing.T) {
	leakCheck(t)
	spoolDirCheck(t)
	plan, _, archive := testData(t, 34, 250, 400, 30)
	inj := faultinject.New(2).Set(faultinject.ShardSlow, faultinject.Rule{Every: 1, Delay: 150 * time.Millisecond})
	srv, _, planID := resilienceServer(t, plan, ServerOptions{MetricWindow: 4096, Fault: inj})

	resp, err := http.Post(srv.URL+"/v1/repair?plan="+planID+"&seed=1&workers=1&deadline_ms=30", "text/csv", bytes.NewReader(tableCSV(t, archive)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("blown deadline: %s: %s, want 503", resp.Status, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Errorf("503 body does not name the deadline: %s", body)
	}
	waitCounter(t, srv, planID, "deadline_exceeded", 1)
}

// TestWorkerPanicIsolation: an injected worker panic fails its own
// request with a typed 500 naming the shard; the process, the engine
// binding and the next request are untouched, and the output after the
// fault is byte-identical to an unfaulted serve.
func TestWorkerPanicIsolation(t *testing.T) {
	leakCheck(t)
	plan, _, archive := testData(t, 35, 250, 600, 30)
	body := tableCSV(t, archive)

	// Reference bytes from an unfaulted server.
	ref, _, refID := resilienceServer(t, plan, ServerOptions{MetricWindow: 4096})
	refResp, err := http.Post(ref.URL+"/v1/repair?plan="+refID+"&seed=9&workers=1", "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(refResp.Body)
	refResp.Body.Close()
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("reference repair: %s", refResp.Status)
	}

	inj := faultinject.New(5).Set(faultinject.ShardPanic, faultinject.Rule{Every: 1, Limit: 1})
	srv, _, planID := resilienceServer(t, plan, ServerOptions{MetricWindow: 4096, Fault: inj})

	resp, err := http.Post(srv.URL+"/v1/repair?plan="+planID+"&seed=9&workers=1", "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking repair: %s: %s, want 500", resp.Status, errBody)
	}
	if !strings.Contains(string(errBody), "panic in shard") {
		t.Errorf("500 body does not carry the shard coordinates: %s", errBody)
	}

	// The panic was the request's, not the process's: the next identical
	// request (fault exhausted) succeeds byte-identically.
	resp2, err := http.Post(srv.URL+"/v1/repair?plan="+planID+"&seed=9&workers=1", "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-panic repair: %s, want 200", resp2.Status)
	}
	if !bytes.Equal(got, want) {
		t.Error("post-panic repair bytes differ from the unfaulted reference")
	}
	if res := resilienceMetrics(t, srv, planID); res["panics"].(float64) != 1 {
		t.Errorf("panics counter = %v, want 1", res["panics"])
	}
}

// TestCorruptPlanSurfacesQuarantine: a plan whose disk bytes were
// corrupted behind the store's back fails its repair with the typed 500
// and shows up in the metrics quarantine counter — while healthy plans
// on the same server keep serving.
func TestCorruptPlanSurfacesQuarantine(t *testing.T) {
	dir := t.TempDir()
	store, err := planstore.Open(dir, planstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	badPlan, _, archive := testData(t, 36, 250, 300, 30)
	goodPlan, _, _ := testData(t, 37, 250, 300, 25)
	badID, _, err := store.Put(badPlan)
	if err != nil {
		t.Fatal(err)
	}
	goodID, _, err := store.Put(goodPlan)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, badID+".json"), []byte("not a plan"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory (cold cache) backs the server,
	// so the first bind reads the corrupt bytes from disk.
	store2, err := planstore.Open(dir, planstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	handler, err := NewServer(store2, ServerOptions{MetricWindow: 4096})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/repair?plan="+badID+"&seed=1", "text/csv", bytes.NewReader(tableCSV(t, archive)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt plan repair: %s: %s, want 500", resp.Status, body)
	}
	if !strings.Contains(string(body), "quarantined") {
		t.Errorf("500 body does not mention quarantine: %s", body)
	}
	if _, err := os.Stat(filepath.Join(store2.QuarantineDir(), badID+".json")); err != nil {
		t.Errorf("corrupt plan not in quarantine: %v", err)
	}
	res := resilienceMetrics(t, srv, goodID)
	if res["quarantined"].(float64) != 1 {
		t.Errorf("quarantined counter = %v, want 1", res["quarantined"])
	}
}

// TestDrainRefusesNewWork: after BeginDrain, repairs answer 503 with
// Retry-After, /readyz flips unready, and /healthz stays alive — the
// liveness/readiness split that lets an orchestrator drain without
// restarting.
func TestDrainRefusesNewWork(t *testing.T) {
	plan, _, archive := testData(t, 38, 250, 300, 30)
	srv, handler, planID := resilienceServer(t, plan, ServerOptions{MetricWindow: 4096})

	// Ready before the drain.
	ready, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain: %s, want 200", ready.Status)
	}

	handler.BeginDrain()

	resp, err := http.Post(srv.URL+"/v1/repair?plan="+planID+"&seed=1", "text/csv", bytes.NewReader(tableCSV(t, archive)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("repair while draining: %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 carries no Retry-After hint")
	}

	unready, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var probe struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(unready.Body).Decode(&probe); err != nil {
		t.Fatal(err)
	}
	unready.Body.Close()
	if unready.StatusCode != http.StatusServiceUnavailable || probe.Ready || probe.Reason != "draining" {
		t.Fatalf("/readyz while draining: %s %+v, want 503 draining", unready.Status, probe)
	}

	alive, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	alive.Body.Close()
	if alive.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining: %s, want 200 (liveness is not readiness)", alive.Status)
	}
}

// TestBadDeadlineRejected: a malformed or non-positive deadline_ms is a
// 400, not a silently ignored knob.
func TestBadDeadlineRejected(t *testing.T) {
	plan, _, archive := testData(t, 39, 250, 100, 25)
	srv, _, planID := resilienceServer(t, plan, ServerOptions{MetricWindow: 4096})
	for _, v := range []string{"abc", "0", "-5"} {
		resp, err := http.Post(srv.URL+"/v1/repair?plan="+planID+"&deadline_ms="+v, "text/csv", bytes.NewReader(tableCSV(t, archive)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("deadline_ms=%s: %s, want 400", v, resp.Status)
		}
	}
}

// TestBadWorkersRejected: every request repairs serially, so workers=1 is
// the only fan-out a request may name; any other value is refused with a
// 400 rather than ignored, since ignoring it would hide that the client's
// bytes do not come from the fan-out it asked for.
func TestBadWorkersRejected(t *testing.T) {
	plan, _, archive := testData(t, 39, 250, 100, 25)
	srv, _, planID := resilienceServer(t, plan, ServerOptions{MetricWindow: 4096})
	for _, tc := range []struct {
		workers string
		want    int
	}{{"0", http.StatusBadRequest}, {"2", http.StatusBadRequest}, {"abc", http.StatusBadRequest}, {"-1", http.StatusBadRequest}, {"1", http.StatusOK}} {
		resp, err := http.Post(srv.URL+"/v1/repair?plan="+planID+"&workers="+tc.workers, "text/csv", bytes.NewReader(tableCSV(t, archive)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("workers=%s: %s, want %d", tc.workers, resp.Status, tc.want)
		}
	}
}
