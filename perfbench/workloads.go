package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// Every workload is one closed-loop client (a caller that waits for each
// reply) sending one kind of operation back to back. The record streams
// are the paper's Section V-A simulation (simulate.Paper), drawn from the
// run's seed.
//
//	repair_csv           POST /v1/repair, 10 000 labelled records, CSV both
//	                     ways, against a Sinkhorn n_Q=100 plan (dense rows):
//	                     the labelled HTTP round trip and its CSV codec.
//	repair_blind_ndjson  the same records with s stripped, as NDJSON,
//	                     through a calibration with method=draw: the JSON
//	                     codec, the batched QDA posterior and
//	                     posterior-mixed draws.
//	design_fresh         POST /v1/plans with a research set never seen
//	                     before (2 000 records, monotone n_Q=100), then a
//	                     500-record repair with the new plan: every design
//	                     misses the design-cell cache and every repair binds
//	                     a new engine.
//	design_repeat        the same operation cycling over four research sets:
//	                     designs hit the design-cell cache, the store sees a
//	                     duplicate put and the engine is already bound.
var workloads = map[string]workload{
	"repair_csv":          {serve: sinkhornPlan, format: "csv", archiveRecords: 10000, bodies: 4},
	"repair_blind_ndjson": {serve: sinkhornPlan, format: "ndjson", archiveRecords: 10000, bodies: 4, blind: true},
	"design_fresh":        {serve: monotonePlan, format: "csv", archiveRecords: 500, bodies: 1, designs: true},
	"design_repeat":       {serve: monotonePlan, format: "csv", archiveRecords: 500, bodies: 1, designs: true, researchPool: 4},
}

var (
	sinkhornPlan = designConfig{research: 500, nq: 100, solver: core.SolverSinkhorn}
	monotonePlan = designConfig{research: 2000, nq: 100, solver: core.SolverMonotone}
)

const (
	// warmRecords is the size of the repair that ends each boot.
	warmRecords = 1000
)

type workload struct {
	// serve is the design every boot, and every design operation, uses.
	serve designConfig
	// format is the repair wire format, csv or ndjson.
	format string
	// archiveRecords is the size of each repair body; the loop cycles over
	// bodies distinct bodies, body b repaired at seed b+1.
	archiveRecords, bodies int
	// blind strips s from the repair bodies and repairs through a
	// calibration fitted on the plan's research set.
	blind bool
	// designs makes each operation a design followed by a repair with the
	// designed plan.
	designs bool
	// researchPool is the number of research sets design operations cycle
	// over; 0 draws a fresh set for every operation.
	researchPool int
}

func (w workload) contentType() string {
	if w.format == "ndjson" {
		return "application/x-ndjson"
	}
	return "text/csv"
}

// repairPath is the repair request for a plan (or, for blind workloads, a
// calibration) at a seed, served by one worker so the response is
// byte-comparable with the in-process library path.
func (w workload) repairPath(planID, calID string, seed int) string {
	p := fmt.Sprintf("/v1/repair?seed=%d&workers=1&format=%s", seed, w.format)
	if w.blind {
		return p + "&method=draw&calibration=" + calID
	}
	return p + "&plan=" + planID
}

// inputs are everything a run sends, drawn from its seed on two streams:
// one for the research sets the boots design from, whose number depends on
// how long boots take, and one for everything else.
type inputs struct {
	sampler   *simulate.Sampler
	r, setupR *rng.RNG
	// setup[k] is the research set boot k designs from.
	setup []researchSet
	// sent[b] is repair body b as sent (s stripped for blind workloads),
	// body[b] its encoding.
	sent []*dataset.Table
	body [][]byte
	// warm is the small repair that ends each boot.
	warm []byte
	// pool holds the research sets design_repeat cycles over.
	pool []researchSet
}

type researchSet struct {
	table *dataset.Table
	csv   []byte
}

func generate(w workload, seed uint64) (*inputs, error) {
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		return nil, err
	}
	root := rng.New(seed)
	in := &inputs{sampler: sampler, r: root.Split(0), setupR: root.Split(1)}
	for b := 0; b < w.bodies; b++ {
		t, err := sampler.Table(in.r, w.archiveRecords)
		if err != nil {
			return nil, err
		}
		if w.blind {
			t = t.DropS()
		}
		raw, err := encode(w.format, t)
		if err != nil {
			return nil, err
		}
		in.sent = append(in.sent, t)
		in.body = append(in.body, raw)
	}
	warm, err := sampler.Table(in.r, warmRecords)
	if err != nil {
		return nil, err
	}
	if w.blind {
		warm = warm.DropS()
	}
	if in.warm, err = encode(w.format, warm); err != nil {
		return nil, err
	}
	for i := 0; i < w.researchPool; i++ {
		rs, err := in.research(in.r, w.serve.research)
		if err != nil {
			return nil, err
		}
		in.pool = append(in.pool, rs)
	}
	return in, nil
}

// addSetup draws the research set of the next boot.
func (in *inputs) addSetup(n int) error {
	rs, err := in.research(in.setupR, n)
	if err != nil {
		return err
	}
	in.setup = append(in.setup, rs)
	return nil
}

// research draws a research set of n records from stream r.
func (in *inputs) research(r *rng.RNG, n int) (researchSet, error) {
	t, err := in.sampler.Table(r, n)
	if err != nil {
		return researchSet{}, err
	}
	var buf bytes.Buffer
	if err := t.WriteCSV(&buf); err != nil {
		return researchSet{}, err
	}
	return researchSet{table: t, csv: buf.Bytes()}, nil
}

// ndjsonRecord is the repair endpoint's NDJSON wire record.
type ndjsonRecord struct {
	X []float64 `json:"x"`
	S *int      `json:"s,omitempty"`
	U int       `json:"u"`
}

func encode(format string, t *dataset.Table) ([]byte, error) {
	var buf bytes.Buffer
	if format == "csv" {
		err := t.WriteCSV(&buf)
		return buf.Bytes(), err
	}
	enc := json.NewEncoder(&buf)
	for _, rec := range t.Records() {
		wr := ndjsonRecord{X: rec.X, U: rec.U}
		if rec.S != dataset.SUnknown {
			s := rec.S
			wr.S = &s
		}
		if err := enc.Encode(wr); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// decode parses a repair response back into records.
func decode(format string, dim int, raw []byte) (*dataset.Table, error) {
	if format == "csv" {
		return dataset.ReadCSV(bytes.NewReader(raw))
	}
	t, err := dataset.NewTable(dim, nil)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var wr ndjsonRecord
		if err := dec.Decode(&wr); err != nil {
			return nil, err
		}
		rec := dataset.Record{X: wr.X, U: wr.U, S: dataset.SUnknown}
		if wr.S != nil {
			rec.S = *wr.S
		}
		if err := t.Append(rec); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// recordCount counts the records in a response body without parsing it.
func recordCount(format string, raw []byte) int {
	n := bytes.Count(raw, []byte{'\n'})
	if format == "csv" {
		n-- // header
	}
	return n
}

// sameRecords reports the first difference between a served and a
// reference table; the comparison is exact.
func sameRecords(got, want *dataset.Table) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d records, want %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		g, w := got.At(i), want.At(i)
		if g.S != w.S || g.U != w.U || len(g.X) != len(w.X) {
			return fmt.Errorf("record %d: labels (s=%d, u=%d), want (s=%d, u=%d)", i, g.S, g.U, w.S, w.U)
		}
		for k := range g.X {
			if g.X[k] != w.X[k] {
				return fmt.Errorf("record %d feature %d: %v, want %v", i, k, g.X[k], w.X[k])
			}
		}
	}
	return nil
}
