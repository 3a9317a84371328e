package repairsvc

// The deterministic fault-injection soak (tentpole part of the
// resilience work, run under -race by `make soak`). A seeded injector
// schedules shard delays, shard panics and store read faults while a
// concurrent client mix — labelled and calibrated repairs, both wire
// formats, some requests with hopeless deadlines,
// some clients that vanish mid-stream — hammers one server behind a small
// admission gate. The contract under test is the whole PR in one
// sentence: every request that succeeds returns bytes identical to an
// unfaulted serve, every request that fails fails with a typed status,
// and the process sheds and recovers instead of leaking or corrupting.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"otfair/internal/faultinject"
	"otfair/internal/obs"
)

// soakCombo is one request shape: engine × wire format.
type soakCombo struct {
	name        string
	query       string
	contentType string
	body        []byte
}

func soakCombos(t *testing.T, planID, calID string, labelledCSV, labelledND, blindCSV, blindND []byte) []soakCombo {
	t.Helper()
	return []soakCombo{
		{"labelled-csv", "plan=" + planID + "&seed=7", "text/csv", labelledCSV},
		{"labelled-ndjson", "plan=" + planID + "&seed=7&format=ndjson", "application/x-ndjson", labelledND},
		{"blind-csv", "calibration=" + calID + "&method=hard&seed=7", "text/csv", blindCSV},
		{"blind-ndjson", "calibration=" + calID + "&method=hard&seed=7&format=ndjson", "application/x-ndjson", blindND},
	}
}

// soakOutcome classifies one request.
type soakOutcome struct {
	combo    string
	status   int  // 0 when the transfer aborted before/during the response
	complete bool // a 200 whose body arrived fully
	match    bool // ...and matched the unfaulted reference
	aborted  bool // transport error (expected for canceled / deadline-cut streams)
}

func TestSoak(t *testing.T) {
	leakCheck(t)
	spoolDirCheck(t)

	nReq := 64
	if v := os.Getenv("OTFAIR_SOAK_REQUESTS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("OTFAIR_SOAK_REQUESTS=%q is not a positive integer", v)
		}
		nReq = n
	}

	plan, research, archive := testData(t, 41, 250, 2000, 30)
	unlabelled := archive.DropS()

	// Reference bytes per combo, from a server with no faults injected.
	refSrv, _, refPlanID := resilienceServer(t, plan, ServerOptions{MetricWindow: 4096})
	refCalID := fitOverHTTP(t, refSrv, refPlanID, research)
	refCombos := soakCombos(t, refPlanID, refCalID,
		tableCSV(t, archive), tableNDJSON(t, archive),
		tableCSV(t, unlabelled), tableNDJSON(t, unlabelled))
	refs := make(map[string][]byte, len(refCombos))
	for _, c := range refCombos {
		resp, err := http.Post(refSrv.URL+"/v1/repair?"+c.query, c.contentType, bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("reference %s: %s %v", c.name, resp.Status, err)
		}
		refs[c.name] = raw
	}

	// The system under soak: seeded faults on every hook the engines and
	// store expose, behind a deliberately small admission gate.
	inj := faultinject.New(1701).
		Set(faultinject.ShardSlow, faultinject.Rule{Every: 3, Delay: 2 * time.Millisecond}).
		Set(faultinject.ShardPanic, faultinject.Rule{Every: 11}).
		Set(faultinject.StoreRead, faultinject.Rule{Every: 2, Limit: 2, Err: errors.New("injected read fault")})
	// Tracing and structured logging run at full tilt during the soak —
	// every request traced with per-record sampling, every request logged —
	// so the instrumentation is exercised under the same races and faults
	// as the serving paths it watches.
	srv, _, planID := resilienceServer(t, plan, ServerOptions{
		MetricWindow: 4096,
		MaxInflight:  4,
		Fault:        inj,
		SlowRequest:  time.Millisecond,
		TraceSample:  1,
		Logger:       slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	calID := fitOverHTTP(t, srv, planID, research)
	combos := soakCombos(t, planID, calID,
		tableCSV(t, archive), tableNDJSON(t, archive),
		tableCSV(t, unlabelled), tableNDJSON(t, unlabelled))

	// Request mix, decided up front so the schedule is a pure function of
	// the request index: every 7th request gets a deadline it cannot meet,
	// every 6th client hangs up mid-stream.
	outcomes := make([]soakOutcome, nReq)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for i := 0; i < nReq; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()

			c := combos[i%len(combos)]
			tinyDeadline := i%7 == 3
			hangUp := i%6 == 5
			out := soakOutcome{combo: c.name}

			query := c.query
			if tinyDeadline {
				query += "&deadline_ms=1"
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/repair?"+query, bytes.NewReader(c.body))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Content-Type", c.contentType)
			resp, err := srv.Client().Do(req)
			if err != nil {
				out.aborted = true
				outcomes[i] = out
				return
			}
			defer resp.Body.Close()
			out.status = resp.StatusCode
			if hangUp {
				// Read a sliver, then vanish.
				io.ReadFull(resp.Body, make([]byte, 256))
				cancel()
				io.Copy(io.Discard, resp.Body)
				out.aborted = true
				outcomes[i] = out
				return
			}
			raw, rerr := io.ReadAll(resp.Body)
			if rerr != nil {
				// Mid-stream abort (deadline or panic after first byte): the
				// transfer must die, not end in a well-formed short response.
				out.aborted = true
				outcomes[i] = out
				return
			}
			if resp.StatusCode == http.StatusOK {
				out.complete = true
				out.match = bytes.Equal(raw, refs[c.name])
			} else {
				// Typed failures arrive as JSON error bodies.
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
					t.Errorf("req %d (%s): status %d with untyped body %q", i, c.name, resp.StatusCode, raw)
				}
			}
			outcomes[i] = out
		}(i)
	}
	wg.Wait()

	counts := map[int]int{}
	succeeded, aborted, mismatched := 0, 0, 0
	for i, out := range outcomes {
		switch {
		case out.aborted:
			aborted++
		case out.complete:
			succeeded++
			if !out.match {
				mismatched++
				t.Errorf("req %d (%s): 200 body differs from the unfaulted reference", i, out.combo)
			}
		default:
			counts[out.status]++
			switch out.status {
			case http.StatusTooManyRequests, http.StatusInternalServerError, http.StatusServiceUnavailable:
				// The typed overload/fault statuses the resilience layer maps to.
			default:
				t.Errorf("req %d (%s): untyped failure status %d", i, out.combo, out.status)
			}
		}
	}
	t.Logf("soak: %d requests — %d succeeded byte-identical, %d aborted transfers, failures by status: %v",
		nReq, succeeded, aborted, counts)
	if succeeded == 0 {
		t.Error("soak produced no successful requests — the mix is all faults, nothing was verified")
	}
	if mismatched > 0 {
		t.Errorf("%d of %d successful requests were not byte-identical", mismatched, succeeded)
	}

	// The failures were counted, not just survived.
	res := resilienceMetrics(t, srv, planID)
	var total float64
	for _, k := range []string{"shed", "deadline_exceeded", "disconnects", "panics"} {
		v, _ := res[k].(float64)
		total += v
	}
	if total == 0 && succeeded < nReq {
		t.Errorf("requests failed but no resilience counter moved: %v", res)
	}

	// A live scrape of the soaked server must still parse and carry the
	// key series. (Exact request counts are racy here: hang-up clients
	// return before their handlers finish, so assert presence, not totals.)
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, perr := obs.ParseText(mresp.Body)
	mresp.Body.Close()
	if perr != nil {
		t.Fatalf("post-soak /metrics does not parse: %v", perr)
	}
	m := sampleMap(samples)
	if m[`otfair_shard_seconds_count`] < 1 {
		t.Error("post-soak scrape: no shard timings recorded")
	}
	if m[`otfair_repair_stage_seconds_count{stage="shard_execute"}`] < 1 {
		t.Error("post-soak scrape: no shard_execute stage spans recorded")
	}
	if m[`otfair_http_request_seconds_count{route="repair"}`] < float64(succeeded) {
		t.Errorf("post-soak scrape: repair route count %v < %d successes",
			m[`otfair_http_request_seconds_count{route="repair"}`], succeeded)
	}
}
