package repairsvc

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"otfair/internal/atof"
	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/rng"
	"otfair/internal/stat"
)

// The NDJSON error-path contract: a request that fails after the response
// has started must abort the connection — the client observes a failed
// transfer, either as an error on the POST itself (nothing flushed yet) or
// as an error reading the body (stream torn mid-transfer) — never a clean,
// complete-looking 200 with silently missing records. A request whose very
// first record is bad fails before any output and gets a clean JSON error
// instead. These tests pin both halves for the three malformation classes:
// a syntactically broken line mid-stream, an oversized record, and a
// record with the wrong feature count.

// ndjsonBody encodes n valid records for the given plan dimension followed
// by the provided raw tail lines.
func ndjsonBody(t *testing.T, dim, n int, tail ...string) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		for k := range x {
			x[k] = float64(i%3) + 0.25*float64(k)
		}
		s := i % 2
		if err := enc.Encode(wireRecord{X: x, S: &s, U: (i / 2) % 2}); err != nil {
			t.Fatal(err)
		}
	}
	for _, line := range tail {
		buf.WriteString(line + "\n")
	}
	return &buf
}

// postNDJSON sends the body. Every request repairs serially, so the
// records before a failing one reach the sink first, and a failure after
// them lands after output started.
// It folds transport- and read-level failures into one error: either means
// the transfer did not complete cleanly.
func postNDJSON(t *testing.T, url string, body io.Reader) (status int, read []byte, err error) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	read, err = io.ReadAll(resp.Body)
	return resp.StatusCode, read, err
}

func TestNDJSONMalformedLineMidStreamAborts(t *testing.T) {
	plan, _, _ := testData(t, 71, 250, 10, 25)
	srv, id := newTestServer(t, plan)
	url := srv.URL + "/v1/repair?plan=" + id + "&seed=1&workers=1&format=ndjson"

	_, read, err := postNDJSON(t, url, ndjsonBody(t, plan.Dim, 8, `{"x": [1.0, broken`))
	if err == nil {
		t.Fatalf("malformed mid-stream line returned a clean complete response (%d bytes)", len(read))
	}
	// Whatever arrived before the abort is whole records, never a torn row.
	if len(read) > 0 && !bytes.HasSuffix(bytes.TrimRight(read, "\n"), []byte("}")) {
		t.Error("aborted stream truncated mid-record")
	}
}

func TestNDJSONOversizedRecordAborts(t *testing.T) {
	plan, _, _ := testData(t, 72, 250, 10, 25)
	srv, id := newTestServer(t, plan)
	url := srv.URL + "/v1/repair?plan=" + id + "&seed=1&workers=1&format=ndjson"

	// One line past the scanner's 4 MiB cap.
	huge := `{"x": [0.1, ` + strings.Repeat("0,", 3*1024*1024) + `0.2], "s": 0, "u": 0}`
	_, read, err := postNDJSON(t, url, ndjsonBody(t, plan.Dim, 5, huge))
	if err == nil {
		t.Fatalf("oversized record returned a clean complete response (%d bytes)", len(read))
	}

	// The same record as the very first line fails before any output: the
	// client gets a clean JSON error, not a torn stream.
	status, read, err := postNDJSON(t, url, ndjsonBody(t, plan.Dim, 0, huge))
	if err != nil {
		t.Fatalf("first-record failure should produce a readable error body: %v", err)
	}
	if status == http.StatusOK {
		t.Fatalf("oversized first record accepted: %s", read)
	}
	var msg struct {
		Error string `json:"error"`
	}
	if uerr := json.Unmarshal(read, &msg); uerr != nil || msg.Error == "" {
		t.Errorf("error body is not the JSON error shape: %q", read)
	}
}

// TestNDJSONOverlongLineNamesItsLine posts a line past the scanner's 4 MiB
// cap after two blank ones. The stream fails before any record reaches the
// sink, so the client gets a clean 422 whose message names the line —
// blank lines counted — as every other NDJSON error does.
func TestNDJSONOverlongLineNamesItsLine(t *testing.T) {
	plan, _, _ := testData(t, 72, 250, 10, 25)
	srv, id := newTestServer(t, plan)
	url := srv.URL + "/v1/repair?plan=" + id + "&seed=1&format=ndjson"

	huge := `{"x": [0.1, ` + strings.Repeat("0,", 3*1024*1024) + `0.2], "s": 0, "u": 0}`
	status, read, err := postNDJSON(t, url, ndjsonBody(t, plan.Dim, 0, "", "", huge))
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want %d: %s", status, http.StatusUnprocessableEntity, read)
	}
	var msg struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(read, &msg); err != nil {
		t.Fatalf("error body is not the JSON error shape: %q", read)
	}
	if !strings.Contains(msg.Error, "ndjson line 3: ") || !strings.Contains(msg.Error, bufio.ErrTooLong.Error()) {
		t.Errorf("error %q does not name line 3 and the scanner's cause", msg.Error)
	}
}

func TestNDJSONMissingColumnAborts(t *testing.T) {
	plan, _, _ := testData(t, 73, 250, 10, 25)
	srv, id := newTestServer(t, plan)
	url := srv.URL + "/v1/repair?plan=" + id + "&seed=1&workers=1&format=ndjson"

	// A record with one feature missing, mid-stream.
	short := `{"x": [0.5], "s": 1, "u": 0}`
	if plan.Dim <= 1 {
		t.Fatal("test scenario needs dim >= 2")
	}
	_, read, err := postNDJSON(t, url, ndjsonBody(t, plan.Dim, 6, short))
	if err == nil {
		t.Fatalf("missing-column record returned a clean complete response (%d bytes)", len(read))
	}

	// First line: clean 4xx JSON error.
	status, read, err := postNDJSON(t, url, ndjsonBody(t, plan.Dim, 0, short))
	if err != nil {
		t.Fatal(err)
	}
	if status == http.StatusOK {
		t.Fatalf("missing-column first record accepted: %s", read)
	}
}

// referenceDecode is the json.Unmarshal decoder the NDJSON scanner must
// reproduce: the same record for a line both accept, the same error text
// for a line either rejects.
func referenceDecode(raw []byte, dim int) (dataset.Record, error) {
	var wr wireRecord
	if err := json.Unmarshal(raw, &wr); err != nil {
		return dataset.Record{}, fmt.Errorf("repairsvc: ndjson line 1: %w", err)
	}
	if len(wr.X) != dim {
		return dataset.Record{}, fmt.Errorf("repairsvc: ndjson line 1: %d features, want %d", len(wr.X), dim)
	}
	rec := dataset.Record{X: wr.X, U: wr.U, S: dataset.SUnknown}
	if wr.S != nil {
		rec.S = *wr.S
	}
	return rec, nil
}

// checkDecode decodes one line through ndjsonStream and compares it with
// referenceDecode: equal feature bits and labels, or equal error text.
func checkDecode(t *testing.T, line []byte, dim int) {
	t.Helper()
	in := &ndjsonStream{sc: bufio.NewScanner(bytes.NewReader(line)), dim: dim}
	in.sc.Buffer(nil, len(line)+1)
	got, gerr := in.Next()
	want, werr := referenceDecode(line, dim)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("line %q: error %v, want %v", line, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if got.S != want.S || got.U != want.U || len(got.X) != len(want.X) {
		t.Fatalf("line %q: got %+v, want %+v", line, got, want)
	}
	for k := range got.X {
		if math.Float64bits(got.X[k]) != math.Float64bits(want.X[k]) {
			t.Fatalf("line %q: feature %d = %v, want %v", line, k, got.X[k], want.X[k])
		}
	}
}

// decodeCases covers both fast-path shapes and every shape the scanner
// must hand to encoding/json: whitespace, reordered, unknown, escaped,
// duplicated or differently cased keys, non-JSON number spellings, ints
// given as floats, out-of-range values and wrong feature counts.
var decodeCases = []string{
	`{"x":[1.5,-2],"s":1,"u":0}`,
	`{"x":[0,-0],"s":null,"u":1}`,
	`{"x":[1e-7,2.5E+21],"u":0}`,
	`{"x":[123456789.125,-0.000001],"s":0,"u":1}`,
	`{"x":[1,2],"s":-1,"u":0}`,
	`{"x":[1,2],"s":2,"u":7}`,
	`{"x":[1],"s":1,"u":0}`,
	`{"x":[1,2,3],"s":1,"u":0}`,
	`{"x":[1,2,1e400],"s":1,"u":0}`,
	`{"x":[],"s":1,"u":0}`,
	`{"x":null,"u":0}`,
	`{"x": [1,2], "s": 1, "u": 0}`,
	`{"u":0,"s":1,"x":[1,2]}`,
	`{"x":[1,2],"s":1,"u":0,"z":3}`,
	`{"X":[1,2],"S":1,"U":0}`,
	`{"x":[1,2],"u":0}`,
	`{"x":[1,2],"x":[3,4],"u":0}`,
	`{"x":[1,2],"u":0,"u":1}`,
	`{"x":[01,2],"u":0}`,
	`{"x":[+1,2],"u":0}`,
	`{"x":[.5,2],"u":0}`,
	`{"x":[1.,2],"u":0}`,
	`{"x":[0x10,2],"u":0}`,
	`{"x":[inf,2],"u":0}`,
	`{"x":[NaN,2],"u":0}`,
	`{"x":[1e400,2],"u":0}`,
	`{"x":[1,2],"u":1.0}`,
	`{"x":[1,2],"u":1e0}`,
	`{"x":[1,2],"s":99999999999999999999,"u":0}`,
	`{"x":[1,2],"s":true,"u":0}`,
	`{"x":[1,2],"u":0} `,
	`{"x":[1,2],"u":0}x`,
	`{"x":[1,2],"u":0`,
	`{"x":[1,2`,
	`{"x":[1,,2],"u":0}`,
	`{"x":[1,2],"s":nul,"u":0}`,
	`[1,2]`,
}

func TestScanWireRecordMatchesJSON(t *testing.T) {
	for _, line := range decodeCases {
		checkDecode(t, []byte(line), 2)
	}
}

// TestScanWireRecordTakesEncoderShapes checks the fast path, not the
// fallback, decodes what encoding/json emits for a wireRecord (with and
// without omitempty on s) and what appendNDJSON writes, bit-exactly.
func TestScanWireRecordTakesEncoderShapes(t *testing.T) {
	type omitS struct {
		X []float64 `json:"x"`
		S *int      `json:"s,omitempty"`
		U int       `json:"u"`
	}
	one := 1
	for _, v := range encodeCases {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		x := []float64{v, -v}
		lines := [][]byte{}
		for _, wr := range []any{wireRecord{X: x, S: &one, U: 1}, wireRecord{X: x}, omitS{X: x, U: 1}} {
			raw, err := json.Marshal(wr)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, raw)
		}
		line, _ := appendNDJSON(nil, dataset.Record{X: x, S: 0, U: 1}, plainJSON)
		lines = append(lines, bytes.TrimSuffix(line, []byte("\n")))
		for _, line := range lines {
			rec, count, ok := scanWireRecord(line, make([]float64, 2))
			if !ok || count != 2 || math.Float64bits(rec.X[0]) != math.Float64bits(v) || math.Float64bits(rec.X[1]) != math.Float64bits(-v) {
				t.Fatalf("fast path on %q: %+v, count %d, ok %v", line, rec, count, ok)
			}
		}
	}
}

// TestNDJSONDecodeKeepsRecords pins the slab contract: every decoded X
// stays intact after later records are decoded, as the labelled
// observability window requires.
func TestNDJSONDecodeKeepsRecords(t *testing.T) {
	const n = 3*slabRecords + 5
	var body bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&body, `{"x":[%d,%d.5],"s":%d,"u":%d}`+"\n", i, i, i%2, (i/2)%2)
	}
	in := &ndjsonStream{sc: bufio.NewScanner(&body), dim: 2}
	var recs []dataset.Record
	for {
		rec, err := in.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != n {
		t.Fatalf("decoded %d records, want %d", len(recs), n)
	}
	for i, rec := range recs {
		if rec.X[0] != float64(i) || rec.X[1] != float64(i)+0.5 || cap(rec.X) != 2 {
			t.Fatalf("record %d = %v (cap %d) after decoding the stream", i, rec.X, cap(rec.X))
		}
	}
}

// encodeCases are float64 values at every formatting boundary the wire
// encoders reproduce: signed zeros, subnormals, the 1e-6 and 1e21 'f'/'e'
// switch, negative exponents with and without a leading zero, extremes
// and non-finite values.
var encodeCases = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3,
	5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-10, 1e-100,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1.2345e22, 1e300,
	math.MaxFloat64, -math.MaxFloat64, 123456789012345678,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// plainJSON and plainCSV are the memo-free feature formatters of the two
// wire encoders.
func plainJSON(b []byte, _, _ int, x float64) []byte { return atof.AppendJSON(b, x) }
func plainCSV(b []byte, _, _ int, x float64) []byte  { return appendCSVFloat(b, x) }

// stdlibEncode is the reference for both wire encoders: the line
// json.Encoder writes for rec's wireRecord, or its error, and the row
// csv.Writer writes for the FormatFloat/Itoa fields.
func stdlibEncode(rec dataset.Record) (jsonLine string, jsonErr error, csvRow string) {
	var buf bytes.Buffer
	wr := wireRecord{X: rec.X, U: rec.U}
	if rec.S != dataset.SUnknown {
		s := rec.S
		wr.S = &s
	}
	jsonErr = json.NewEncoder(&buf).Encode(wr)
	jsonLine = buf.String()

	buf.Reset()
	cw := csv.NewWriter(&buf)
	row := []string{"", strconv.Itoa(rec.U)}
	if rec.S != dataset.SUnknown {
		row[0] = strconv.Itoa(rec.S)
	}
	for _, v := range rec.X {
		row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
	}
	cw.Write(row)
	cw.Flush()
	return jsonLine, jsonErr, buf.String()
}

// checkEncode compares the append-based encoders with stdlibEncode: once
// with the plain formatters, then through both response sinks bound to
// two plans — one whose every grid holds the record's finite values, and
// memoFixturePlan. Each sink writes the record twice, so the second write
// copies what the first formatted into the memo, then twice more with its
// features reversed, so each cell also meets the other values.
func checkEncode(t *testing.T, rec dataset.Record) {
	t.Helper()
	wantJSON, werr, wantCSV := stdlibEncode(rec)
	got, gerr := appendNDJSON([]byte("prefix"), rec, plainJSON)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%+v: ndjson error %v, want %v", rec, gerr, werr)
	}
	if string(got) != "prefix"+wantJSON {
		t.Fatalf("%+v: ndjson %q, want %q", rec, got, "prefix"+wantJSON)
	}
	if got := dataset.AppendCSVRecord(nil, rec, plainCSV); string(got) != wantCSV {
		t.Fatalf("%+v: csv %q, want %q", rec, got, wantCSV)
	}

	rev := dataset.Record{X: slices.Clone(rec.X), S: rec.S, U: rec.U}
	slices.Reverse(rev.X)
	writes := []dataset.Record{rec, rec, rev, rev}
	for _, plan := range []*core.Plan{gridPlanFor(rec.X), memoFixturePlan()} {
		for _, format := range []string{"ndjson", "csv"} {
			var want bytes.Buffer
			pipe := (*Server).ndjsonPipe
			if format == "csv" {
				pipe = (*Server).csvPipe
				if err := dataset.WriteCSVHeader(&want, plan.Names); err != nil {
					t.Fatal(err)
				}
			}
			w := httptest.NewRecorder()
			_, closeIn, out, err := pipe(nil, w, strings.NewReader("s,u,a,b\n"), plan)
			if err != nil {
				t.Fatal(err)
			}
			defer closeIn()
			for pass, r := range writes {
				line, lineErr, row := stdlibEncode(r)
				if format == "csv" {
					line, lineErr = row, nil
				}
				err := out.write(r)
				if (err == nil) != (lineErr == nil) || err != nil && err.Error() != lineErr.Error() {
					t.Fatalf("%+v: %s sink write %d error %v, want %v", r, format, pass, err, lineErr)
				}
				if err == nil {
					want.WriteString(line)
				}
			}
			if err := out.finish(); err != nil {
				t.Fatal(err)
			}
			out.release()
			if got := w.Body.String(); got != want.String() {
				t.Fatalf("%+v: %s sink wrote %q, want %q", rec, format, got, want.String())
			}
		}
	}
}

// gridPlanFor is a plan of dimension len(x) whose every (u, k) grid holds
// the finite values of x, sorted.
func gridPlanFor(x []float64) *core.Plan {
	var q []float64
	for _, v := range x {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			q = append(q, v)
		}
	}
	sort.Float64s(q)
	plan := &core.Plan{Dim: len(x)}
	for u := range plan.Cells {
		for range x {
			plan.Cells[u] = append(plan.Cells[u], &core.Cell{Q: q})
		}
	}
	return plan
}

// memoFixturePlan is a fixed d = 2 plan the FuzzWireEncode seeds place
// values against: cell (0,0) holds +0 and 0.25, cell (0,1) neither, cell
// (1,0) is degenerate at 2.5, and cell (1,1) spans both of encoding/json's
// 'e' ranges.
func memoFixturePlan() *core.Plan {
	return &core.Plan{Dim: 2, Cells: [2][]*core.Cell{
		{{Q: stat.Linspace(-1, 1, 9)}, {Q: stat.Linspace(0.5, 4.5, 5)}},
		{{Q: []float64{2.5}, Degenerate: true}, {Q: []float64{-1e22, -1e-7, 1e-7, 1e21}}},
	}}
}

func TestWireEncodeMatchesStdlib(t *testing.T) {
	for _, v := range encodeCases {
		for _, s := range []int{dataset.SUnknown, 0, 1} {
			checkEncode(t, dataset.Record{X: []float64{v, -v, 0.5}, S: s, U: 1})
		}
	}
	checkEncode(t, dataset.Record{X: []float64{}, S: math.MinInt, U: math.MaxInt})
}

// FuzzNDJSONDecode runs the NDJSON scanner differentially against
// json.Unmarshal: the same record, or the same error, and never a panic.
func FuzzNDJSONDecode(f *testing.F) {
	for _, line := range decodeCases {
		f.Add([]byte(line), uint8(2))
	}
	f.Fuzz(func(t *testing.T, line []byte, dim uint8) {
		if len(line) == 0 || bytes.ContainsAny(line, "\r\n") {
			return // one non-empty scanner line per input
		}
		checkDecode(t, line, 1+int(dim%4))
	})
}

// FuzzWireEncode compares both append-based encoders with encoding/json
// and encoding/csv for arbitrary float64 bit patterns and labels, plain
// and through both response sinks' support-text memo (checkEncode). The
// memo_* seeds place values against memoFixturePlan's grids.
func FuzzWireEncode(f *testing.F) {
	for _, v := range encodeCases {
		f.Add(math.Float64bits(v), math.Float64bits(-v), 1, 0)
	}
	f.Fuzz(func(t *testing.T, a, b uint64, s, u int) {
		checkEncode(t, dataset.Record{X: []float64{math.Float64frombits(a), math.Float64frombits(b)}, S: s, U: u})
	})
}

// discardResponse is an http.ResponseWriter that drops the body.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }

// repairedRecords repairs n archive records of a d = 2, n_Q = nq plan, the
// values a sink writes in serving.
func repairedRecords(t *testing.T, nq, n int) (*core.Plan, []dataset.Record) {
	t.Helper()
	plan, _, archive := testData(t, 91, 400, n, nq)
	rp, err := core.NewRepairer(plan, rng.New(5), core.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := rp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]dataset.Record, repaired.Len())
	for i := range recs {
		recs[i] = repaired.At(i)
	}
	return plan, recs
}

// TestSinkAllocsPerRecord pins the pooled sink: after a warm-up response,
// a 10 000-record response through either sink allocates at most 0.01
// times per record, and its memo fills at most one slot per support point,
// 2·d·n_Q in all.
func TestSinkAllocsPerRecord(t *testing.T) {
	const nq, n = 100, 10000
	plan, recs := repairedRecords(t, nq, n)
	for _, tc := range []struct {
		name string
		pipe func(*Server, http.ResponseWriter, io.Reader, *core.Plan) (dataset.Stream, func() error, *lineSink, error)
	}{
		{"ndjson", (*Server).ndjsonPipe},
		{"csv", (*Server).csvPipe},
	} {
		w := &discardResponse{h: http.Header{}}
		var filled, slots int
		allocs := testing.AllocsPerRun(3, func() {
			_, closeIn, out, err := tc.pipe(nil, w, strings.NewReader("s,u,a,b\n"), plan)
			if err != nil {
				t.Fatal(err)
			}
			defer closeIn()
			for _, rec := range recs {
				if err := out.write(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := out.finish(); err != nil {
				t.Fatal(err)
			}
			filled, slots = 0, len(out.st.memo.slots)
			for _, s := range out.st.memo.slots {
				if s.end != 0 {
					filled++
				}
			}
			out.release()
		})
		if perRec := allocs / n; perRec > 0.01 {
			t.Errorf("%s: %.4f allocations per record (%.0f per response), want <= 0.01", tc.name, perRec, allocs)
		}
		if max := 2 * plan.Dim * nq; slots != max || filled == 0 || filled > max {
			t.Errorf("%s: memo filled %d of %d slots, want 1..%d", tc.name, filled, slots, max)
		}
	}
}

// TestSinkBytesMatchPlainEncoders writes a whole repaired stream, both u
// groups and every feature interleaved, through each sink and compares
// the body with the plain formatters' bytes.
func TestSinkBytesMatchPlainEncoders(t *testing.T) {
	plan, recs := repairedRecords(t, 30, 3000)
	var header bytes.Buffer
	if err := dataset.WriteCSVHeader(&header, plan.Names); err != nil {
		t.Fatal(err)
	}
	wantJSON, wantCSV := []byte{}, header.Bytes()
	for _, rec := range recs {
		var err error
		if wantJSON, err = appendNDJSON(wantJSON, rec, plainJSON); err != nil {
			t.Fatal(err)
		}
		wantCSV = dataset.AppendCSVRecord(wantCSV, rec, plainCSV)
	}
	for _, tc := range []struct {
		name string
		pipe func(*Server, http.ResponseWriter, io.Reader, *core.Plan) (dataset.Stream, func() error, *lineSink, error)
		want []byte
	}{
		{"ndjson", (*Server).ndjsonPipe, wantJSON},
		{"csv", (*Server).csvPipe, wantCSV},
	} {
		w := httptest.NewRecorder()
		_, closeIn, out, err := tc.pipe(nil, w, strings.NewReader("s,u,a,b\n"), plan)
		if err != nil {
			t.Fatal(err)
		}
		closeIn()
		for _, rec := range recs {
			if err := out.write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := out.finish(); err != nil {
			t.Fatal(err)
		}
		out.release()
		if !bytes.Equal(w.Body.Bytes(), tc.want) {
			t.Errorf("%s: sink body (%d bytes) differs from the plain encoder's (%d bytes)", tc.name, w.Body.Len(), len(tc.want))
		}
	}
}

// TestLongRowsAbortOnRecordBoundary: a request that fails mid-stream
// truncates its response at a record boundary in both formats, for rows
// shorter than 4 KiB that do not divide it and for rows longer than it,
// because each write to the response holds whole records.
func TestLongRowsAbortOnRecordBoundary(t *testing.T) {
	for _, dim := range []int{150, 300} {
		plan, research := wideDesign(t, dim)
		srv, id := newTestServer(t, plan)
		var csvBody bytes.Buffer
		if err := research.WriteCSV(&csvBody); err != nil {
			t.Fatal(err)
		}
		csvBody.WriteString("0,1,2\n") // a short row mid-stream

		for _, tc := range []struct {
			format, ctype string
			body          io.Reader
			// header is the number of preamble lines before the records.
			header int
			whole  func(line []byte) bool
		}{
			{"ndjson", "application/x-ndjson", ndjsonBody(t, dim, 60, `{"x": [1.0, broken`), 0, func(line []byte) bool {
				var wr wireRecord
				return json.Unmarshal(line, &wr) == nil && len(wr.X) == dim
			}},
			{"csv", "text/csv", &csvBody, 1, func(line []byte) bool {
				return bytes.Count(line, []byte(",")) == dim+1 && line[len(line)-1] != ','
			}},
		} {
			t.Run(fmt.Sprintf("%s/dim%d", tc.format, dim), func(t *testing.T) {
				resp, err := http.Post(srv.URL+"/v1/repair?plan="+id+"&seed=1&workers=1&format="+tc.format, tc.ctype, tc.body)
				if err != nil {
					t.Fatalf("response never started: %v", err)
				}
				defer resp.Body.Close()
				read, err := io.ReadAll(resp.Body)
				if err == nil {
					t.Fatalf("failing mid-stream request returned a clean complete response (%d bytes)", len(read))
				}
				lines := bytes.Split(bytes.TrimSuffix(read, []byte("\n")), []byte("\n"))
				if len(lines) <= tc.header {
					t.Fatal("no record arrived before the abort; the test needs a flushed buffer")
				}
				if read[len(read)-1] != '\n' {
					t.Fatalf("aborted stream ends mid-record: ...%q", read[max(0, len(read)-40):])
				}
				for i, line := range lines[tc.header:] {
					if !tc.whole(line) {
						t.Fatalf("record %d is not a whole record: %.60q...", i, line)
					}
				}
				if dim == 300 && len(lines[tc.header]) <= 4096 {
					t.Fatalf("rows are %d bytes; the case needs rows longer than 4 KiB", len(lines[tc.header]))
				}
			})
		}
	}
}

// wideDesign designs an NQ = 10 plan on an 80-record research set of
// dimension dim.
func wideDesign(t *testing.T, dim int) (*core.Plan, *dataset.Table) {
	t.Helper()
	names := make([]string, dim)
	for k := range names {
		names[k] = "feature_" + strconv.Itoa(k)
	}
	research, err := dataset.NewTable(dim, names)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(uint64(dim))
	for i := 0; i < 80; i++ {
		x := make([]float64, dim)
		for k := range x {
			x[k] = r.Normal(float64(i%2), 1)
		}
		if err := research.Append(dataset.Record{X: x, S: i % 2, U: (i / 2) % 2}); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := core.Design(research, core.Options{NQ: 10})
	if err != nil {
		t.Fatal(err)
	}
	return plan, research
}
