package otfair_test

// Throughput benchmarks for the serving layer: batch repair through the
// precomputed alias-table engine, the O(row-nnz) categorical-draw baseline
// it replaced, and the full HTTP round trip through fairserved's handler.
// All three report records/sec so BENCH_*.json tracks serving throughput,
// not just ns/op.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"otfair"
	"otfair/internal/planstore"
	"otfair/internal/repairsvc"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// benchServeState designs one plan and archive for the throughput benches.
// The design is entropic (Sinkhorn) at n_Q=100: its plans are dense, so
// every draw samples a ~n_Q-atom row — the sampling-bound regime where the
// alias table's O(1) draw beats the O(row-nnz) inversion baseline. (With
// the default monotone solver rows carry 1–2 atoms and both draw methods
// are equally cheap.)
func benchServeState(b *testing.B, nA int) (plan *otfair.Plan, research, archive *otfair.Table) {
	b.Helper()
	research, archive = benchSimData(b, 500, nA)
	plan, err := otfair.Design(research, otfair.DesignOptions{NQ: 100, Solver: otfair.SolverSinkhorn})
	if err != nil {
		b.Fatal(err)
	}
	return plan, research, archive
}

func benchBatchRepair(b *testing.B, opts otfair.BatchOptions) {
	plan, _, archive := benchServeState(b, 20000)
	engine, err := otfair.NewBatchRepairer(plan, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := engine.RepairTable(otfair.NewRNG(uint64(i)+1), otfair.BlindHard, archive); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(archive.Len())*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
}

// BenchmarkRepairThroughputAlias is the serving configuration: precomputed
// alias tables, parallel shards.
func BenchmarkRepairThroughputAlias(b *testing.B) {
	benchBatchRepair(b, otfair.BatchOptions{})
}

// BenchmarkRepairThroughputAliasSerial isolates the per-draw win from the
// shard fan-out.
func BenchmarkRepairThroughputAliasSerial(b *testing.B) {
	benchBatchRepair(b, otfair.BatchOptions{Workers: 1})
}

// BenchmarkServeRepairHTTP measures the full service round trip: CSV
// upload, streamed repair, CSV download through the fairserved handler.
// Every request repairs serially, so this is perfbench repair_csv's
// configuration and the one a serial records/sec target means.
func BenchmarkServeRepairHTTP(b *testing.B) {
	plan, _, archive := benchServeState(b, 20000)
	srv, id := benchServer(b, plan)
	var archiveCSV bytes.Buffer
	if err := archive.WriteCSV(&archiveCSV); err != nil {
		b.Fatal(err)
	}
	benchServeRoundTrip(b, srv.URL+"/v1/repair?plan="+id+"&seed=1", "text/csv", archiveCSV.Bytes(), archive.Len())
}

// BenchmarkServeRepairHTTPBlindNDJSON is the blind serving round trip:
// s-unlabelled NDJSON upload, repair through a calibration with
// method=draw, NDJSON download.
func BenchmarkServeRepairHTTPBlindNDJSON(b *testing.B) {
	plan, research, archive := benchServeState(b, 20000)
	srv, id := benchServer(b, plan)
	var researchCSV bytes.Buffer
	if err := research.WriteCSV(&researchCSV); err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/calibrations?plan="+id, "text/csv", &researchCSV)
	if err != nil {
		b.Fatal(err)
	}
	var fit struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&fit)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		b.Fatalf("calibration fit: %s: %v", resp.Status, err)
	}
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := 0; i < archive.Len(); i++ {
		rec := archive.At(i)
		if err := enc.Encode(struct {
			X []float64 `json:"x"`
			S *int      `json:"s"`
			U int       `json:"u"`
		}{X: rec.X, U: rec.U}); err != nil {
			b.Fatal(err)
		}
	}
	url := srv.URL + "/v1/repair?calibration=" + fit.ID + "&method=draw&workers=1&format=ndjson&seed=1"
	benchServeRoundTrip(b, url, "application/x-ndjson", body.Bytes(), archive.Len())
}

// benchServer serves plan from a fresh store through the fairserved
// handler.
func benchServer(b *testing.B, plan *otfair.Plan) (*httptest.Server, string) {
	store, err := planstore.Open(b.TempDir(), planstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	id, _, err := store.Put(plan)
	if err != nil {
		b.Fatal(err)
	}
	handler, err := repairsvc.NewServer(store, repairsvc.ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	b.Cleanup(srv.Close)
	return srv, id
}

// benchServeRoundTrip posts body to url b.N times, draining each response,
// and reports records/sec.
func benchServeRoundTrip(b *testing.B, url, ctype string, body []byte, records int) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, ctype, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("repair: %s", resp.Status)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
}

// benchServeOverload offers `mult`× the admission budget in concurrent
// repair waves and measures what the gate turns the overload into:
// goodput (records/sec through successful requests) and the shed
// fraction. The PERFORMANCE.md overload table comes from this bench —
// the claim under test is that offered load beyond the budget converts
// to cheap 429s while goodput stays at the 1× level instead of
// collapsing under queueing.
func benchServeOverload(b *testing.B, mult int) {
	const gate = 4
	plan, _, archive := benchServeState(b, 5000)
	store, err := planstore.Open(b.TempDir(), planstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	id, _, err := store.Put(plan)
	if err != nil {
		b.Fatal(err)
	}
	handler, err := repairsvc.NewServer(store, repairsvc.ServerOptions{MaxInflight: gate})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()
	client := srv.Client()
	if tr, ok := client.Transport.(*http.Transport); ok {
		tr.MaxIdleConnsPerHost = gate * mult
	}
	var archiveCSV bytes.Buffer
	if err := archive.WriteCSV(&archiveCSV); err != nil {
		b.Fatal(err)
	}
	body := archiveCSV.Bytes()
	offered := gate * mult
	var okCount, shedCount atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < offered; c++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				resp, err := client.Post(srv.URL+"/v1/repair?plan="+id+"&seed="+strconv.Itoa(seed), "text/csv", bytes.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				defer resp.Body.Close()
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					b.Error(err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					okCount.Add(1)
				case http.StatusTooManyRequests:
					shedCount.Add(1)
				default:
					b.Errorf("unexpected status %s", resp.Status)
				}
			}(i*offered + c + 1)
		}
		wg.Wait()
	}
	ok, shed := okCount.Load(), shedCount.Load()
	b.ReportMetric(float64(ok)*float64(archive.Len())/b.Elapsed().Seconds(), "goodput-records/sec")
	b.ReportMetric(float64(shed)/float64(ok+shed), "shed-fraction")
}

func BenchmarkServeOverload1x(b *testing.B) { benchServeOverload(b, 1) }
func BenchmarkServeOverload2x(b *testing.B) { benchServeOverload(b, 2) }
func BenchmarkServeOverload4x(b *testing.B) { benchServeOverload(b, 4) }

// BenchmarkPlansPostRepeat is the design layer of perfbench's
// design_repeat workload: POST /v1/plans through the fairserved handler,
// cycling over four 2 000-record research sets at monotone n_Q=100. Every
// set is designed once before the clock starts, so each timed request
// decodes the research CSV, hits the design-cell cache on every cell and
// makes a duplicate store put. Allocations are reported per request.
func BenchmarkPlansPostRepeat(b *testing.B) {
	s, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, 4)
	for i := range bodies {
		research, err := s.Table(rng.New(uint64(i)+1), 2000)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := research.WriteCSV(&buf); err != nil {
			b.Fatal(err)
		}
		bodies[i] = buf.Bytes()
	}
	store, err := planstore.Open(b.TempDir(), planstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	handler, err := repairsvc.NewServer(store, repairsvc.ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	post := func(body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/plans?nq=100&solver=monotone", bytes.NewReader(body))
		req.Header.Set("Content-Type", "text/csv")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("design: %d %s", rec.Code, rec.Body.Bytes())
		}
	}
	for _, body := range bodies {
		post(body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(bodies[i%len(bodies)])
	}
}
