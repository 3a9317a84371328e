package repairsvc

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"otfair/internal/atof"
	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/stat"
)

// The repair endpoint is a record-stream transformer, so both wire formats
// are implemented as (input Stream, lineSink) pairs around the
// request/response bodies. Response headers and the CSV header row are
// written lazily on the first repaired record, so validation errors that
// precede any output (unknown plan, dimension mismatch) still produce clean
// JSON errors.
//
// Both sinks append whole records into one pooled output buffer and hand
// it to the ResponseWriter in one write once it is full, so the bytes are
// exactly what encoding/csv and encoding/json would write without either
// package running per record, and every write ends on a record boundary.
// Each feature's text comes from the response's supportMemo.

// outBufSize is the response buffer: whole records accumulate until the
// next one might not fit, then go to the ResponseWriter in one write. It
// is the 64 KiB the CSV row reader reads requests with.
const outBufSize = 64 << 10

// featureFunc appends the text of feature k of a record in group u.
type featureFunc = func(b []byte, u, k int, x float64) []byte

// respState is one response's encoder state: the output buffer and the
// support-text memo. It is pooled between responses, so a response clears
// the memo's slots instead of allocating them.
type respState struct {
	out  []byte
	memo supportMemo
}

var respPool = sync.Pool{New: func() any {
	st := &respState{out: make([]byte, 0, outBufSize)}
	st.memo.feature = st.memo.appendFeature
	return st
}}

// supportMemo is one response's text for its plan's support points. Every
// value a repair writes is a support point of its record's (u, k) cell —
// cell.Q[j], or Q[0] for a degenerate cell — so a response formats each
// point the first time it writes it and copies that text after. A value
// not bit-identical to the grid point stat.SearchGrid finds for it
// (off-grid, -0 beside a +0 point, NaN, a u outside {0,1}) is formatted
// directly, so the bytes written never depend on the memo.
type supportMemo struct {
	format  func([]byte, float64) []byte // the encoder's float formatter
	feature featureFunc                  // appendFeature, bound once per respState
	cells   [2][]memoCell                // indexed [u][k], like core.Plan.Cells
	slots   []memoSlot                   // every cell's slots, back to back
	text    []byte                       // the formatted points, back to back
}

type memoCell struct {
	q     []float64
	slots []memoSlot
}

// memoSlot locates a support point's text in supportMemo.text; end == 0
// marks a point this response has not written yet.
type memoSlot struct{ start, end uint32 }

// bind points the memo at plan's grids with every slot empty.
func (m *supportMemo) bind(plan *core.Plan, format func([]byte, float64) []byte) {
	m.format = format
	m.text = m.text[:0]
	n := 0
	for u := range plan.Cells {
		for _, c := range plan.Cells[u] {
			n += len(c.Q)
		}
	}
	if cap(m.slots) < n {
		m.slots = make([]memoSlot, n)
	} else {
		m.slots = m.slots[:n]
		clear(m.slots)
	}
	slots := m.slots
	for u := range plan.Cells {
		cells := m.cells[u][:0]
		for _, c := range plan.Cells[u] {
			q := c.Q
			cells = append(cells, memoCell{q: q, slots: slots[:len(q):len(q)]})
			slots = slots[len(q):]
		}
		m.cells[u] = cells
	}
}

// unbind drops the memo's references to the plan before it is pooled.
func (m *supportMemo) unbind() {
	for u := range m.cells {
		clear(m.cells[u])
		m.cells[u] = m.cells[u][:0]
	}
	m.format = nil
}

func (m *supportMemo) appendFeature(b []byte, u, k int, x float64) []byte {
	if uint(u) < 2 && uint(k) < uint(len(m.cells[u])) {
		c := &m.cells[u][k]
		if j := stat.SearchGrid(c.q, x); j < len(c.q) && math.Float64bits(c.q[j]) == math.Float64bits(x) {
			s := &c.slots[j]
			if s.end == 0 {
				s.start = uint32(len(m.text))
				m.text = m.format(m.text, x)
				s.end = uint32(len(m.text))
			}
			return append(b, m.text[s.start:s.end]...)
		}
	}
	return m.format(b, x)
}

// lineSink lazily starts the response and appends one encoded record per
// write.
type lineSink struct {
	w       http.ResponseWriter
	ctype   string
	header  func(io.Writer) error // writes any preamble once; may be nil
	encode  func([]byte, dataset.Record, featureFunc) ([]byte, error)
	st      *respState
	started bool
}

// newLineSink takes a respState from the pool with its memo bound to plan;
// the caller must release it.
func newLineSink(w http.ResponseWriter, ctype string, plan *core.Plan, format func([]byte, float64) []byte,
	header func(io.Writer) error, encode func([]byte, dataset.Record, featureFunc) ([]byte, error)) *lineSink {
	st := respPool.Get().(*respState)
	st.memo.bind(plan, format)
	return &lineSink{w: w, ctype: ctype, header: header, encode: encode, st: st}
}

func (ls *lineSink) start() error {
	if ls.started {
		return nil
	}
	ls.started = true
	ls.w.Header().Set("Content-Type", ls.ctype)
	ls.w.WriteHeader(http.StatusOK)
	if ls.header != nil {
		return ls.header((*appendWriter)(&ls.st.out))
	}
	return nil
}

// write appends the record to the output buffer, and sends the buffer
// once another record as long as this one would take it past outBufSize.
func (ls *lineSink) write(rec dataset.Record) error {
	if err := ls.start(); err != nil {
		return err
	}
	st := ls.st
	n := len(st.out)
	out, err := ls.encode(st.out, rec, st.memo.feature)
	if err != nil {
		return err
	}
	st.out = out
	if last := len(out) - n; len(out)+last > outBufSize {
		return ls.flush()
	}
	return nil
}

func (ls *lineSink) flush() error {
	_, err := ls.w.Write(ls.st.out)
	ls.st.out = ls.st.out[:0]
	return err
}

// finish starts an empty response if no record was written and sends
// what the buffer holds.
func (ls *lineSink) finish() error {
	if err := ls.start(); err != nil {
		return err
	}
	if len(ls.st.out) == 0 {
		return nil
	}
	return ls.flush()
}

// release returns the sink's state to the pool; the sink is unusable
// after. A buffer a very long record grew past twice outBufSize is left
// to the collector.
func (ls *lineSink) release() {
	st := ls.st
	if st == nil {
		return
	}
	ls.st = nil
	st.memo.unbind()
	if cap(st.out) > 2*outBufSize {
		return
	}
	st.out = st.out[:0]
	respPool.Put(st)
}

// appendWriter is an io.Writer appending to a byte slice.
type appendWriter []byte

func (a *appendWriter) Write(p []byte) (int, error) {
	*a = append(*a, p...)
	return len(p), nil
}

// csvPipe adapts the dataset CSV layout ("s,u,<features...>"). closeIn
// hands the stream's pooled read buffer back; the caller must call it.
func (s *Server) csvPipe(w http.ResponseWriter, body io.Reader, plan *core.Plan) (in dataset.Stream, closeIn func() error, out *lineSink, err error) {
	cs, err := dataset.NewCSVStream(body)
	if err != nil {
		return nil, nil, nil, err
	}
	out = newLineSink(w, "text/csv", plan, appendCSVFloat,
		func(w io.Writer) error {
			return dataset.WriteCSVHeader(w, plan.Names)
		},
		func(b []byte, rec dataset.Record, feature featureFunc) ([]byte, error) {
			return dataset.AppendCSVRecord(b, rec, feature), nil
		})
	return cs, cs.Close, out, nil
}

// appendCSVFloat is the CSV layout's float text, FormatFloat(x, 'g', -1, 64).
func appendCSVFloat(b []byte, x float64) []byte {
	return strconv.AppendFloat(b, x, 'g', -1, 64)
}

// wireRecord is the NDJSON record shape, identical both directions. A
// missing or null s marks an unknown protected attribute (which the repair
// path rejects — estimate labels first).
type wireRecord struct {
	X []float64 `json:"x"`
	S *int      `json:"s"`
	U int       `json:"u"`
}

// ndjsonStream decodes one wireRecord per line.
type ndjsonStream struct {
	sc   *bufio.Scanner
	dim  int
	line int
	// slab is the unused tail of the current feature chunk. Each record's
	// X is carved from it and handed out exactly once: records outlive
	// Next (the labelled observability window keeps them), so a chunk is
	// never rewound or reused.
	slab []float64
}

// slabRecords is the number of records' features one chunk holds.
const slabRecords = 64

func (n *ndjsonStream) Dim() int { return n.dim }

func (n *ndjsonStream) Next() (dataset.Record, error) {
	for n.sc.Scan() {
		n.line++
		raw := n.sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if len(n.slab) < n.dim {
			n.slab = make([]float64, n.dim*slabRecords)
		}
		rec, count, ok := scanWireRecord(raw, n.slab[:n.dim:n.dim])
		if !ok {
			var wr wireRecord
			if err := json.Unmarshal(raw, &wr); err != nil {
				return dataset.Record{}, fmt.Errorf("repairsvc: ndjson line %d: %w", n.line, err)
			}
			rec = dataset.Record{X: wr.X, U: wr.U, S: dataset.SUnknown}
			if wr.S != nil {
				rec.S = *wr.S
			}
			count = len(wr.X)
		} else if count == n.dim {
			n.slab = n.slab[n.dim:]
		}
		if count != n.dim {
			return dataset.Record{}, fmt.Errorf("repairsvc: ndjson line %d: %d features, want %d", n.line, count, n.dim)
		}
		return rec, nil
	}
	if err := n.sc.Err(); err != nil {
		// Scan failed on the line after the last one it returned.
		return dataset.Record{}, fmt.Errorf("repairsvc: ndjson line %d: %w", n.line+1, err)
	}
	return dataset.Record{}, io.EOF
}

// scanWireRecord decodes the exact shapes encoding/json emits for a
// wireRecord — {"x":[n,…],"s":<int>|null,"u":<int>}, and the same with "s"
// omitted — writing the first len(x) features into x and returning the
// record (X is x), the number of features on the line, and ok. Any other
// line, and any number encoding/json would reject or decode differently
// (out of range, an int given as 1.0), reports !ok so the caller falls
// back to json.Unmarshal; the set of accepted lines, their values and the
// error text therefore never depend on this fast path.
func scanWireRecord(b []byte, x []float64) (rec dataset.Record, count int, ok bool) {
	const head = `{"x":[`
	if !hasPrefix(b, head) {
		return rec, 0, false
	}
	i := len(head)
	for {
		// atof's number shape is JSON's with leading zeros allowed,
		// which JSON refuses.
		v, n, settled := atof.ParsePrefix(b[i:])
		if n == 0 || leadingZero(b[i:i+n]) {
			return rec, 0, false
		}
		end := i + n
		if !settled {
			var err error
			if v, err = strconv.ParseFloat(string(b[i:end]), 64); err != nil {
				return rec, 0, false
			}
		}
		// Features past len(x) are parsed too: one encoding/json rejects
		// must fail the line as its error, not as a feature count.
		if count < len(x) {
			x[count] = v
		}
		count++
		if end >= len(b) {
			return rec, 0, false
		}
		i = end + 1
		if b[end] == ']' {
			break
		}
		if b[end] != ',' {
			return rec, 0, false
		}
	}
	rec = dataset.Record{X: x, S: dataset.SUnknown}
	rest := b[i:]
	if hasPrefix(rest, `,"s":`) {
		rest = rest[len(`,"s":`):]
		if hasPrefix(rest, "null") {
			rest = rest[len("null"):]
		} else if rec.S, rest, ok = scanInt(rest); !ok {
			return rec, 0, false
		}
	}
	if !hasPrefix(rest, `,"u":`) {
		return rec, 0, false
	}
	if rec.U, rest, ok = scanInt(rest[len(`,"u":`):]); !ok {
		return rec, 0, false
	}
	if string(rest) != "}" {
		return rec, 0, false
	}
	return rec, count, true
}

func hasPrefix(b []byte, p string) bool {
	return len(b) >= len(p) && string(b[:len(p)]) == p
}

// scanInt decodes a JSON integer (no fraction or exponent) that fits an
// int from the front of b.
func scanInt(b []byte) (int, []byte, bool) {
	i := 0
	if len(b) > 0 && b[0] == '-' {
		i = 1
	}
	end := skipDigits(b, i)
	if end == i || leadingZero(b[:end]) || end < len(b) && (b[end] == '.' || b[end]|0x20 == 'e') {
		return 0, nil, false
	}
	v, err := strconv.Atoi(string(b[:end]))
	if err != nil {
		return 0, nil, false
	}
	return v, b[end:], true
}

// leadingZero reports whether the number text num, one or more digits
// after an optional '-', starts with a '0' followed by another digit.
func leadingZero(num []byte) bool {
	if num[0] == '-' {
		num = num[1:]
	}
	return len(num) > 1 && num[0] == '0' && '0' <= num[1] && num[1] <= '9'
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// appendNDJSON appends rec as the line json.Encoder writes for its
// wireRecord, newline included, with each feature's text from feature,
// which must append atof.AppendJSON's. Like encoding/json it rejects
// non-finite features, appending nothing.
func appendNDJSON(b []byte, rec dataset.Record, feature featureFunc) ([]byte, error) {
	for _, v := range rec.X {
		if err := atof.CheckJSON(v); err != nil {
			return b, err
		}
	}
	b = append(b, `{"x":[`...)
	for k, v := range rec.X {
		if k > 0 {
			b = append(b, ',')
		}
		b = feature(b, rec.U, k, v)
	}
	b = append(b, `],"s":`...)
	if rec.S == dataset.SUnknown {
		b = append(b, "null"...)
	} else {
		b = strconv.AppendInt(b, int64(rec.S), 10)
	}
	b = append(b, `,"u":`...)
	b = strconv.AppendInt(b, int64(rec.U), 10)
	return append(b, "}\n"...), nil
}

// ndjsonPipe adapts newline-delimited JSON records. Its closeIn has
// nothing to hand back.
func (s *Server) ndjsonPipe(w http.ResponseWriter, body io.Reader, plan *core.Plan) (in dataset.Stream, closeIn func() error, out *lineSink, err error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	in = &ndjsonStream{sc: sc, dim: plan.Dim}
	out = newLineSink(w, "application/x-ndjson", plan, atof.AppendJSON, nil, appendNDJSON)
	return in, func() error { return nil }, out, nil
}
