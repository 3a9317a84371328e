package repairsvc

// Research-feed scenario tests: the drift loop driven through feed
// outages, recoveries, timers and the staging endpooint, all asserted
// through public surfaces (/metrics scrapes, /v1/refs, HTTP responses).
// The byte-identity invariant from driftloop_test.go rides along: a
// watched server under feed chaos answers every 2xx byte-identically to a
// loop-disabled server.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/driftwatch"
	"otfair/internal/monitor"
	"otfair/internal/planstore"
	"otfair/internal/researchfeed"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

func TestCASRefRetryRecoversFromConflict(t *testing.T) {
	refs, err := planstore.OpenRefs(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	lineage := strings.Repeat("a", 32)
	stolen := strings.Repeat("b", 32)
	target := strings.Repeat("c", 32)

	// A concurrent writer repoints the lineage after we resolved our
	// expected incumbent: the stale-expected CAS must conflict, and
	// casRefRetry must re-resolve and land the swap on the second try.
	staleExpected := refs.Resolve(lineage)
	if err := refs.CompareAndSwap(lineage, refs.Resolve(lineage), stolen); err != nil {
		t.Fatalf("concurrent swap: %v", err)
	}
	if err := refs.CompareAndSwap(lineage, staleExpected, target); err == nil {
		t.Fatal("stale-expected CAS did not conflict; the race this test guards is gone")
	}
	if err := casRefRetry(refs, lineage, staleExpected, target); err != nil {
		t.Fatalf("casRefRetry did not recover from the conflict: %v", err)
	}
	if got := refs.Resolve(lineage); got != target {
		t.Fatalf("lineage resolves to %s, want %s", got, target)
	}
	// No conflict at all: the plain path still works.
	other := strings.Repeat("d", 32)
	if err := casRefRetry(refs, lineage, target, other); err != nil {
		t.Fatalf("conflict-free casRefRetry: %v", err)
	}
	if got := refs.Resolve(lineage); got != other {
		t.Fatalf("lineage resolves to %s, want %s", got, other)
	}
}

// writeFreshCSV materializes a drifted research table as a CSV file and
// returns its path.
func writeFreshCSV(t *testing.T, tbl *dataset.Table) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fresh-research.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// seedPlan designs the incumbent plan from stationary research and stores
// it, returning the store and fingerprint.
func seedPlan(t *testing.T, seed uint64, nResearch int) (*planstore.Store, string) {
	t.Helper()
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	research, err := sampler.Table(rng.New(seed), nResearch)
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
	return store, id
}

// TestDriftTimerRecalibratesIdleArtefact: the acceptance scenario for the
// drift timer. One burst of drifted traffic arms the monitor and fills the
// canary reservoir, then traffic stops entirely; with -drift-check-every
// armed, the timer alone must walk the watcher to alarmed, run the refit
// and land the swap — zero further repair requests.
func TestDriftTimerRecalibratesIdleArtefact(t *testing.T) {
	leakCheck(t)
	store, id := seedPlan(t, 1, 400)
	srcPath := writeFreshCSV(t, shiftedTable(t, 2, 400, 1))
	handler, err := NewServer(store, ServerOptions{
		Monitor: monitor.Options{Window: 128, CheckEvery: 32},
		DriftWatch: &driftwatch.Config{
			AlarmAfter:    2,
			QuietAfter:    64,
			ReservoirSize: 256,
			MaxERise:      0.05,
			MaxDamageRise: 10,
			Seed:          1,
		},
		RecalibrateFrom: srcPath,
		DriftCheckEvery: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(handler.Close)
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)

	// The only repair traffic of the test: one drifted burst.
	resp := postCSV(t, srv.URL+"/v1/repair?plan="+id+"&seed=1&workers=1",
		shiftedTable(t, 100, 400, 1))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seeding repair: %s", resp.Status)
	}

	// From here on the timer is the only driver. Scrapes observe, they do
	// not feed the watcher.
	swapKey := `otfair_recalibrations_total{outcome="swapped"}`
	deadline := time.Now().Add(30 * time.Second)
	var m map[string]float64
	for {
		m = scrapeProm(t, srv.URL)
		if m[swapKey] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle artefact never recalibrated: state=%v swapped=%v failed=%v",
				m[`otfair_drift_state{artefact="`+id+`"}`], m[swapKey],
				m[`otfair_recalibrations_total{outcome="refit_failed"}`])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m[swapKey] != 1 {
		t.Errorf("swapped = %v, want exactly 1", m[swapKey])
	}
	if _, ok := m["otfair_refit_queue_depth"]; !ok {
		t.Error("otfair_refit_queue_depth gauge not exported")
	}
	// The swap is visible in the ref namespace without any request having
	// driven it.
	refsResp, err := http.Get(srv.URL + "/v1/refs")
	if err != nil {
		t.Fatal(err)
	}
	var refsOut struct {
		Refs map[string]string `json:"refs"`
	}
	if err := json.NewDecoder(refsResp.Body).Decode(&refsOut); err != nil {
		t.Fatal(err)
	}
	refsResp.Body.Close()
	if newID, ok := refsOut.Refs[id]; !ok || newID == id {
		t.Fatalf("refs after idle swap = %v, want lineage %s repointed", refsOut.Refs, id)
	}
}

// TestFeedOutageScenario: the feed goes down, the loop degrades to
// refit_failed with the circuit breaker opening, the feed recovers, the
// breaker closes through its half-open probe and the swap lands; a later
// alarm on unchanged content (ETag 304) skips as refit_skipped_stale.
// Every 2xx response along the way is byte-identical to a loop-disabled
// server, and no goroutine outlives the server.
func TestFeedOutageScenario(t *testing.T) {
	leakCheck(t)
	const openFor = 50 * time.Millisecond
	clock := newFakeClock()

	fresh := shiftedTable(t, 2, 400, 1)
	var freshCSV bytes.Buffer
	if err := fresh.WriteCSV(&freshCSV); err != nil {
		t.Fatal(err)
	}
	var upMu sync.Mutex
	upstreamUp := false
	var feedGets, feed304s int
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		upMu.Lock()
		defer upMu.Unlock()
		feedGets++
		if !upstreamUp {
			http.Error(w, "research warehouse offline", http.StatusInternalServerError)
			return
		}
		if r.Header.Get("If-None-Match") == `"fresh-v1"` {
			feed304s++
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Etag", `"fresh-v1"`)
		w.Header().Set("Content-Type", "text/csv")
		w.Write(freshCSV.Bytes())
	}))
	t.Cleanup(upstream.Close)

	store, id := seedPlan(t, 1, 400)
	watchedHandler, err := NewServer(store, ServerOptions{
		MetricWindow: 4096,
		Monitor:      monitor.Options{Window: 128, CheckEvery: 32},
		DriftWatch: &driftwatch.Config{
			AlarmAfter:    2,
			QuietAfter:    32,
			ReservoirSize: 256,
			MaxERise:      0.05,
			MaxDamageRise: 10,
			Seed:          1,
		},
		RecalibrateURL: upstream.URL,
		FeedRetry:      researchfeed.RetryPolicy{Attempts: 2, Base: time.Millisecond, Max: 4 * time.Millisecond, Seed: 7},
		FeedBreaker:    researchfeed.BreakerConfig{Threshold: 2, OpenFor: openFor},
		// The breaker's OpenFor runs on a manual clock: on the real one a
		// slow host let it lapse between alarms, so phase 2 never saw a
		// breaker_open fast fail.
		Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(watchedHandler.Close)
	watched := httptest.NewServer(watchedHandler)
	t.Cleanup(watched.Close)

	controlStore, cid := seedPlan(t, 1, 400)
	controlHandler, err := NewServer(controlStore, ServerOptions{
		MetricWindow: 4096,
		Monitor:      monitor.Options{Window: 128, CheckEvery: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	control := httptest.NewServer(controlHandler)
	t.Cleanup(control.Close)
	if cid != id {
		t.Fatalf("plan fingerprints diverge: %s vs %s", id, cid)
	}

	// repairBoth sends one identical drifted repair to both servers and
	// asserts byte identity; frac scales the injected drift.
	seq := 0
	repairBoth := func(frac float64) {
		t.Helper()
		seq++
		tbl := shiftedTable(t, uint64(500+seq), 400, frac)
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
	waitFor := func(phase string, cond func(map[string]float64) bool, frac float64) map[string]float64 {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			repairBoth(frac)
			m := scrapeProm(t, watched.URL)
			if cond(m) {
				return m
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: condition never met after %d requests: breaker=%v errors=%v open=%v ok=%v swapped=%v failed=%v stale=%v",
					phase, seq,
					m["otfair_feed_breaker_state"],
					m[`otfair_feed_fetches_total{outcome="error"}`],
					m[`otfair_feed_fetches_total{outcome="breaker_open"}`],
					m[`otfair_feed_fetches_total{outcome="ok"}`],
					m[`otfair_recalibrations_total{outcome="swapped"}`],
					m[`otfair_recalibrations_total{outcome="refit_failed"}`],
					m[`otfair_recalibrations_total{outcome="refit_skipped_stale"}`])
			}
		}
	}

	// Phase 1: feed down. Alarms degrade to refit_failed, the error
	// cycles trip the breaker, and serving never wavers.
	m := waitFor("outage", func(m map[string]float64) bool {
		return m[`otfair_feed_fetches_total{outcome="error"}`] >= 2 &&
			m["otfair_feed_breaker_state"] == float64(researchfeed.BreakerOpen)
	}, 1)
	if m[`otfair_recalibrations_total{outcome="refit_failed"}`] < 1 {
		t.Errorf("outage alarms did not land refit_failed: %v",
			m[`otfair_recalibrations_total{outcome="refit_failed"}`])
	}
	if m[`otfair_recalibrations_total{outcome="swapped"}`] != 0 {
		t.Errorf("swap landed while the feed was down")
	}

	// Phase 2: with the breaker open, the next alarm fast-fails without a
	// retry ladder.
	waitFor("breaker-open fast fail", func(m map[string]float64) bool {
		return m[`otfair_feed_fetches_total{outcome="breaker_open"}`] >= 1
	}, 1)

	// Phase 3: the feed recovers. Past OpenFor the half-open probe
	// succeeds, the breaker closes, and the refit finally lands.
	upMu.Lock()
	upstreamUp = true
	upMu.Unlock()
	clock.Advance(openFor)
	m = waitFor("recovery", func(m map[string]float64) bool {
		return m[`otfair_recalibrations_total{outcome="swapped"}`] >= 1
	}, 1)
	if st := m["otfair_feed_breaker_state"]; st != float64(researchfeed.BreakerClosed) {
		t.Errorf("breaker state after recovery = %v, want closed", st)
	}
	if m[`otfair_feed_fetches_total{outcome="ok"}`] < 1 {
		t.Error("no ok fetch counted after recovery")
	}
	if age, ok := m["otfair_feed_age_seconds"]; !ok || age < 0 || age > 300 {
		t.Errorf("feed age after success = %v (present %v), want a small non-negative age", age, ok)
	}

	// Phase 4: the population drifts further, but the feed content is
	// unchanged — the conditional GET answers 304, the cached snapshot
	// fingerprints identically to the content the swap was judged on, and
	// the loop declines with refit_skipped_stale instead of redesigning
	// the same plan.
	m = waitFor("stale skip", func(m map[string]float64) bool {
		return m[`otfair_recalibrations_total{outcome="refit_skipped_stale"}`] >= 1
	}, 2)
	if m[`otfair_feed_fetches_total{outcome="not_modified"}`] < 1 {
		t.Errorf("stale skip landed without a not_modified fetch: %v",
			m[`otfair_feed_fetches_total{outcome="not_modified"}`])
	}
	if m[`otfair_recalibrations_total{outcome="swapped"}`] != 1 {
		t.Errorf("stale content re-swapped: swapped = %v, want exactly 1",
			m[`otfair_recalibrations_total{outcome="swapped"}`])
	}
	upMu.Lock()
	g, n304 := feedGets, feed304s
	upMu.Unlock()
	if g == 0 || n304 == 0 {
		t.Errorf("upstream saw %d gets, %d conditional 304s; want both positive", g, n304)
	}
}

// TestDriftRefitFromStagedSource: with no file or URL source, a research
// set staged through POST /v1/research becomes the drift loop's refit
// source, and the landed swap's research fingerprint is the staged
// artefact's id.
func TestDriftRefitFromStagedSource(t *testing.T) {
	leakCheck(t)
	const token = "stage-me-token"
	store, id := seedPlan(t, 1, 400)
	handler, err := NewServer(store, ServerOptions{
		Monitor: monitor.Options{Window: 128, CheckEvery: 32},
		DriftWatch: &driftwatch.Config{
			AlarmAfter:    2,
			QuietAfter:    64,
			ReservoirSize: 256,
			MaxERise:      0.05,
			MaxDamageRise: 10,
			Seed:          1,
		},
		ResearchToken: token,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(handler.Close)
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)

	// Stage the fresh research set the loop should refit from.
	var body bytes.Buffer
	if err := shiftedTable(t, 2, 400, 1).WriteCSV(&body); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/research", &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Content-Type", "text/csv")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var staged struct {
		ID      string `json:"id"`
		Records int    `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&staged); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || staged.Records != 400 {
		t.Fatalf("staging: %s, records=%d", resp.Status, staged.Records)
	}

	// Drifted traffic alarms the watcher; the loop refits from the staged
	// set and swaps.
	swapKey := `otfair_recalibrations_total{outcome="swapped"}`
	deadline := time.Now().Add(30 * time.Second)
	var m map[string]float64
	for seq := 0; ; seq++ {
		resp := postCSV(t, fmt.Sprintf("%s/v1/repair?plan=%s&seed=%d&workers=1", srv.URL, id, seq),
			shiftedTable(t, uint64(700+seq), 400, 1))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("repair: %s", resp.Status)
		}
		m = scrapeProm(t, srv.URL)
		if m[swapKey] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no swap from staged source: state=%v failed=%v",
				m[`otfair_drift_state{artefact="`+id+`"}`],
				m[`otfair_recalibrations_total{outcome="refit_failed"}`])
		}
	}
	if m[`otfair_feed_fetches_total{outcome="ok"}`] < 1 {
		t.Error("staged source never fetched ok")
	}
}

func TestResearchStagingEndpointAuth(t *testing.T) {
	stageTable := func() *bytes.Buffer {
		var buf bytes.Buffer
		if err := shiftedTable(t, 9, 64, 0).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	post := func(srv *httptest.Server, auth, contentType string, body io.Reader) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/research", body)
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	t.Run("disabled without token", func(t *testing.T) {
		store, _ := seedPlan(t, 21, 200)
		handler, err := NewServer(store, ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(handler)
		t.Cleanup(srv.Close)
		if resp := post(srv, "Bearer whatever", "text/csv", stageTable()); resp.StatusCode != http.StatusForbidden {
			t.Fatalf("tokenless server answered %s, want 403", resp.Status)
		}
	})

	store, _ := seedPlan(t, 22, 200)
	handler, err := NewServer(store, ServerOptions{ResearchToken: "correct-token"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)

	t.Run("missing auth", func(t *testing.T) {
		resp := post(srv, "", "text/csv", stageTable())
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("missing auth answered %s, want 401", resp.Status)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Error("401 without a WWW-Authenticate challenge")
		}
	})
	t.Run("wrong token", func(t *testing.T) {
		if resp := post(srv, "Bearer wrong-token!!", "text/csv", stageTable()); resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("wrong token answered %s, want 401", resp.Status)
		}
	})
	t.Run("wrong media type", func(t *testing.T) {
		if resp := post(srv, "Bearer correct-token", "application/json", strings.NewReader("{}")); resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("json body answered %s, want 415", resp.Status)
		}
	})
	t.Run("below min records", func(t *testing.T) {
		var buf bytes.Buffer
		if err := shiftedTable(t, 9, 4, 0).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		// Default FeedMinRecords is 16; a 4-record set is refused at the
		// door with 422, not accepted and rejected at refit time.
		if resp := post(srv, "Bearer correct-token", "text/csv", &buf); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("degenerate set answered %s, want 422", resp.Status)
		}
	})
	t.Run("stage and dedup", func(t *testing.T) {
		resp := post(srv, "Bearer correct-token", "text/csv", stageTable())
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("first stage answered %s, want 201", resp.Status)
		}
		var first struct {
			ID      string `json:"id"`
			Records int    `json:"records"`
			Dim     int    `json:"dim"`
			Existed bool   `json:"existed"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
			t.Fatal(err)
		}
		if first.Records != 64 || first.Existed {
			t.Fatalf("first stage: %+v", first)
		}
		// Restaging identical content answers 200 with existed=true and
		// the same content-addressed id.
		again := post(srv, "Bearer correct-token", "text/csv", stageTable())
		if again.StatusCode != http.StatusOK {
			t.Fatalf("restage answered %s, want 200", again.Status)
		}
		var second struct {
			ID      string `json:"id"`
			Existed bool   `json:"existed"`
		}
		if err := json.NewDecoder(again.Body).Decode(&second); err != nil {
			t.Fatal(err)
		}
		if !second.Existed || second.ID != first.ID {
			t.Fatalf("restage: %+v, want existed with id %s", second, first.ID)
		}
	})
}
