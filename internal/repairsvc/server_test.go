package repairsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/planstore"
	"otfair/internal/rng"
)

// newTestServer boots a server over a fresh store and registers the plan.
func newTestServer(t *testing.T, plan *core.Plan) (*httptest.Server, string) {
	t.Helper()
	store, err := planstore.Open(t.TempDir(), planstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := store.Put(plan)
	if err != nil {
		t.Fatal(err)
	}
	handler, err := NewServer(store, ServerOptions{MetricWindow: 4096})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	return srv, id
}

func postCSV(t *testing.T, url string, tbl *dataset.Table) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServeRepairByteIdentical is the serve-path equivalence test: POST
// /v1/repair with workers=1 and a fixed seed produces byte-identical output
// to the in-process Repairer.RepairTable at the same seed — design → store
// → serve → repair equals design → repair.
func TestServeRepairByteIdentical(t *testing.T) {
	plan, _, archive := testData(t, 21, 300, 2000, 40)
	srv, id := newTestServer(t, plan)

	resp := postCSV(t, srv.URL+"/v1/repair?plan="+id+"&seed=17&workers=1", archive)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("repair: %s: %s", resp.Status, body)
	}
	served, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	rp, err := core.NewRepairer(plan, rng.New(17), core.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV bytes.Buffer
	if err := want.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, wantCSV.Bytes()) {
		t.Fatalf("served bytes differ from in-process repair (%d vs %d bytes)", len(served), wantCSV.Len())
	}
}

// TestServeRepairDefaultMatchesSerial: a request without ?workers= takes
// the one serial stream path, so on a multicore host it returns exactly
// the workers=1 bytes at the same seed — the bytes do not depend on how
// many cores served them.
func TestServeRepairDefaultMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	plan, _, archive := testData(t, 22, 250, 1200, 30)
	srv, id := newTestServer(t, plan)
	read := func(query string) []byte {
		resp := postCSV(t, srv.URL+"/v1/repair?plan="+id+"&seed=5"+query, archive)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("repair%s: %s", query, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if def, serial := read(""), read("&workers=1"); !bytes.Equal(def, serial) {
		t.Fatal("a request without workers returned different bytes from workers=1")
	}
}

func TestServeNDJSONRoundTrip(t *testing.T) {
	plan, _, archive := testData(t, 23, 250, 400, 30)
	srv, id := newTestServer(t, plan)

	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	for i := 0; i < archive.Len(); i++ {
		rec := archive.At(i)
		s := rec.S
		if err := enc.Encode(wireRecord{X: rec.X, S: &s, U: rec.U}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/repair?plan="+id+"&seed=1&workers=1&format=ndjson", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("repair: %s: %s", resp.Status, body)
	}
	out, err := dataset.NewTable(archive.Dim(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var wr wireRecord
		if err := dec.Decode(&wr); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		rec := dataset.Record{X: wr.X, U: wr.U, S: dataset.SUnknown}
		if wr.S != nil {
			rec.S = *wr.S
		}
		if err := out.Append(rec); err != nil {
			t.Fatal(err)
		}
	}

	// NDJSON and CSV are transport encodings of the same repair: the
	// repaired values must match the in-process reference exactly (floats
	// survive JSON round-trips bit-exactly at default precision).
	rp, err := core.NewRepairer(plan, rng.New(1), core.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, out, want)
}

func TestPlanLifecycleOverHTTP(t *testing.T) {
	plan, research, _ := testData(t, 24, 300, 10, 30)
	srv, id := newTestServer(t, plan)

	// Upload the serialized plan: content addressing must dedupe.
	raw, err := plan.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/plans", "application/json", bytes.NewReader(raw))
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
	if up.ID != id || !up.Existed {
		t.Errorf("upload: id=%s existed=%v, want %s/true", up.ID, up.Existed, id)
	}

	// Designing over HTTP from the same research data and options also
	// lands on the same fingerprint (Algorithm 1 is pure).
	resp = postCSV(t, srv.URL+"/v1/plans?nq=30", research)
	var designed struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&designed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if designed.ID != id {
		t.Errorf("design-over-HTTP id %s != stored %s", designed.ID, id)
	}

	// Listing and download.
	resp, err = http.Get(srv.URL + "/v1/plans")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Plans []string `json:"plans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Plans) != 1 || list.Plans[0] != id {
		t.Errorf("plans = %v", list.Plans)
	}
	resp, err = http.Get(srv.URL + "/v1/plans/" + id)
	if err != nil {
		t.Fatal(err)
	}
	downloaded, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(downloaded, raw) {
		t.Error("downloaded plan differs from canonical bytes")
	}

	// Unknown and malformed plan IDs.
	resp, err = http.Get(srv.URL + "/v1/plans/ffffffffffffffffffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown plan: %s, want 404", resp.Status)
	}
	resp, err = http.Post(srv.URL+"/v1/repair?plan=nope", "text/csv", strings.NewReader("s,u,x1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("malformed plan id accepted")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	plan, _, archive := testData(t, 25, 300, 1500, 40)
	srv, id := newTestServer(t, plan)

	resp := postCSV(t, srv.URL+"/v1/repair?plan="+id+"&seed=2&workers=1", archive)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err := http.Get(srv.URL + "/v1/metrics?plan=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Engine struct {
			Records int64 `json:"records"`
			Values  int64 `json:"values"`
		} `json:"engine"`
		Drift struct {
			Seen         int64 `json:"seen"`
			WatchedCells int   `json:"watched_cells"`
		} `json:"drift"`
		Metric struct {
			EOriginal    *float64 `json:"e_original"`
			ERepaired    *float64 `json:"e_repaired"`
			WindowFilled int      `json:"window_filled"`
		} `json:"metric"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Engine.Records != int64(archive.Len()) {
		t.Errorf("records = %d, want %d", m.Engine.Records, archive.Len())
	}
	if m.Engine.Values != int64(archive.Len()*archive.Dim()) {
		t.Errorf("values = %d, want %d", m.Engine.Values, archive.Len()*archive.Dim())
	}
	if m.Drift.Seen != int64(archive.Len()) || m.Drift.WatchedCells == 0 {
		t.Errorf("drift seen=%d cells=%d", m.Drift.Seen, m.Drift.WatchedCells)
	}
	if m.Metric.EOriginal == nil || m.Metric.ERepaired == nil {
		t.Fatal("metrics endpoint reported no E values")
	}
	if !(*m.Metric.ERepaired < *m.Metric.EOriginal) {
		t.Errorf("E did not improve: %v -> %v", *m.Metric.EOriginal, *m.Metric.ERepaired)
	}
	if m.Metric.WindowFilled != archive.Len() {
		t.Errorf("window filled = %d, want %d", m.Metric.WindowFilled, archive.Len())
	}

	// Healthz while at it.
	resp2, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("healthz: %s", resp2.Status)
	}
}

// TestServerConcurrentTraffic mixes repair, metrics and list requests from
// many goroutines; under -race this certifies the serving layer.
func TestServerConcurrentTraffic(t *testing.T) {
	plan, _, archive := testData(t, 26, 250, 600, 30)
	srv, id := newTestServer(t, plan)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				resp := postCSV(t, fmt.Sprintf("%s/v1/repair?plan=%s&seed=%d", srv.URL, id, g+1), archive)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("repair: %s", resp.Status)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mresp, err := http.Get(srv.URL + "/v1/metrics?plan=" + id)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, mresp.Body)
				mresp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
}

// TestBoundPlanStateEviction checks that the serving tier's per-plan state
// is LRU-bounded: touching more plans than MaxBoundPlans evicts the
// coldest, while the store keeps serving every plan.
func TestBoundPlanStateEviction(t *testing.T) {
	store, err := planstore.Open(t.TempDir(), planstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := uint64(40); seed < 44; seed++ {
		plan, _, _ := testData(t, seed, 200, 10, 12)
		id, _, err := store.Put(plan)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	handler, err := NewServer(store, ServerOptions{MaxBoundPlans: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	for _, id := range ids {
		resp, err := http.Get(srv.URL + "/v1/metrics?plan=" + id)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics %s: %s", id, resp.Status)
		}
	}
	handler.mu.Lock()
	bound := len(handler.states)
	handler.mu.Unlock()
	if bound != 2 {
		t.Errorf("bound states = %d, want 2", bound)
	}
	// Evicted plans rebind transparently on the next touch.
	resp, err := http.Get(srv.URL + "/v1/metrics?plan=" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("rebind after eviction: %s", resp.Status)
	}
}

// TestFailedRepairKeepsWindowsPaired: a labelled request that aborts on an
// s-unlabelled record leaves the original and repaired metric windows
// holding the same records — exactly the ones delivered to the sink, the
// prefix that ends at the failing record — so /v1/metrics never compares
// E before and after over different records.
func TestFailedRepairKeepsWindowsPaired(t *testing.T) {
	const bad = 4500
	plan, _, archive := testData(t, 41, 300, 5000, 30)
	input, err := dataset.NewTable(archive.Dim(), archive.Names())
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range archive.Records() {
		if i == bad {
			rec.S = dataset.SUnknown
		}
		if err := input.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	windowLen := func(w *recordWindow) int {
		if w.full {
			return len(w.buf)
		}
		return w.next
	}
	// workers=1 and no workers parameter name the same serial path.
	for _, tc := range []struct{ name, query string }{{"workers=1", "&workers=1"}, {"default", ""}} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := planstore.Open(t.TempDir(), planstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			id, _, err := store.Put(plan)
			if err != nil {
				t.Fatal(err)
			}
			handler, err := NewServer(store, ServerOptions{MetricWindow: 8192})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(handler)
			t.Cleanup(srv.Close)
			resp := postCSV(t, srv.URL+"/v1/repair?plan="+id+"&seed=3"+tc.query, input)
			_, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || rerr == nil {
				t.Fatalf("status %s, read error %v: want an aborted 200 stream", resp.Status, rerr)
			}
			ps, err := handler.state(id)
			if err != nil {
				t.Fatal(err)
			}
			ps.mu.Lock()
			orig, rep := windowLen(ps.original), windowLen(ps.repaired)
			ps.mu.Unlock()
			if orig != rep || rep != bad {
				t.Fatalf("windows hold %d original and %d repaired records, want %d of each", orig, rep, bad)
			}
		})
	}
}

// TestRecordWindowSpanMatchesPerRecord feeds one metric window span by
// span and a reference ring one record at a time: spans shorter than,
// equal to and longer than the capacity, s-unknown records mixed in, from
// every starting slot with the window not yet full and already full. The
// rings must agree slot for slot, with the same next and full, and
// materialize byte-identical tables.
func TestRecordWindowSpanMatchesPerRecord(t *testing.T) {
	const dim = 2
	r := rng.New(17)
	// addOne is the per-record reference: every labelled record takes the
	// next slot.
	addOne := func(w *recordWindow, rec dataset.Record) {
		if rec.S == dataset.SUnknown {
			return
		}
		w.buf[w.next] = rec
		if w.next++; w.next == len(w.buf) {
			w.next, w.full = 0, true
		}
	}
	serial := 0
	span := func(n int, unknownEvery int) []dataset.Record {
		recs := make([]dataset.Record, n)
		for i := range recs {
			serial++
			recs[i] = dataset.Record{X: []float64{float64(serial), -0.5 * float64(serial)}, S: r.IntN(2), U: r.IntN(2)}
			if unknownEvery > 0 && r.IntN(unknownEvery) == 0 {
				recs[i].S = dataset.SUnknown
			}
		}
		return recs
	}
	for _, capacity := range []int{1, 3, 8} {
		for _, prefill := range []int{0, capacity} {
			for offset := 0; offset < capacity; offset++ {
				got, want := newRecordWindow(dim, capacity), newRecordWindow(dim, capacity)
				for _, rec := range span(prefill+offset, 0) {
					addOne(got, rec)
					addOne(want, rec)
				}
				lengths := []int{0, 1, capacity - 1, capacity, capacity + 1, 2 * capacity, 3*capacity + 2, 5 * capacity}
				for step, n := range lengths {
					for _, unknownEvery := range []int{0, 2, 1} {
						recs := span(n, unknownEvery)
						labelled := 0
						for _, rec := range recs {
							if rec.S != dataset.SUnknown {
								labelled++
							}
							addOne(want, rec)
						}
						got.addSpan(recs, labelled)
						where := fmt.Sprintf("capacity %d prefill %d offset %d step %d (span %d, unknown 1/%d)", capacity, prefill, offset, step, n, unknownEvery)
						if got.next != want.next || got.full != want.full {
							t.Fatalf("%s: next %d full %v, per-record %d %v", where, got.next, got.full, want.next, want.full)
						}
						for i := range got.buf {
							g, w := got.buf[i], want.buf[i]
							if g.S != w.S || g.U != w.U || len(g.X) != len(w.X) || len(g.X) > 0 && &g.X[0] != &w.X[0] {
								t.Fatalf("%s: slot %d holds %v, per-record %v", where, i, g, w)
							}
						}
						gt, wt := got.table(), want.table()
						if (gt == nil) != (wt == nil) {
							t.Fatalf("%s: table %v, per-record %v", where, gt, wt)
						}
						if gt == nil {
							continue
						}
						var gb, wb bytes.Buffer
						if err := gt.WriteCSV(&gb); err != nil {
							t.Fatal(err)
						}
						if err := wt.WriteCSV(&wb); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
							t.Fatalf("%s: table\n%s\nper-record\n%s", where, gb.Bytes(), wb.Bytes())
						}
					}
				}
			}
		}
	}
}
