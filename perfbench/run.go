package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"otfair/internal/blind"
	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/rng"
)

type config struct {
	seed    uint64
	seconds float64
	trace   bool
	dir     string
}

const (
	// A run boots cold at least minBoots times and until the boots have
	// taken setupBudget of processor time, at most maxBoots times; setup_s
	// is their median.
	minBoots    = 7
	maxBoots    = 41
	setupBudget = 1500 * time.Millisecond
	// replayedBoots is how many of the last boots' designs are replayed.
	replayedBoots = 3
	// warmOps run after the last boot, unmeasured, so the measured loop
	// starts with a warm connection and, on design_repeat, a full cache.
	warmOps = 4
	// checkedDesigns bounds the design operations whose plan and repair
	// are verified against the cache-free replay after the loop.
	checkedDesigns = 6
)

// boot is one started server with the plan (and calibration) it designed.
type boot struct {
	srv           *server
	cl            *client
	planID, calID string
}

func (b *boot) stop() error {
	b.cl.close()
	return b.srv.stop()
}

// coldBoot starts a server from an empty store and design cache, designs
// the workload's plan over HTTP from research set k, fits the calibration
// for blind workloads, and answers the first small repair. It returns the
// processor time the boot took.
func coldBoot(w workload, in *inputs, k int, cfg config) (*boot, time.Duration, error) {
	if err := in.addSetup(w.serve.research); err != nil {
		return nil, 0, err
	}
	core.ResetDesignCache()
	cpu0 := cpuTime()
	srv, err := startServer(filepath.Join(cfg.dir, fmt.Sprintf("boot%d", k)), cfg.trace)
	if err != nil {
		return nil, 0, err
	}
	b := &boot{srv: srv, cl: newClient(srv.url)}
	err = func() error {
		research := in.setup[k].csv
		if b.planID, err = b.cl.postID("/v1/plans?"+w.serve.query(), "text/csv", research); err != nil {
			return err
		}
		if w.blind {
			if b.calID, err = b.cl.postID("/v1/calibrations?plan="+b.planID, "text/csv", research); err != nil {
				return err
			}
		}
		resp, err := b.cl.post(w.repairPath(b.planID, b.calID, 1), w.contentType(), in.warm)
		if err != nil {
			return err
		}
		if n := recordCount(w.format, resp); n != warmRecords {
			return fmt.Errorf("first repair returned %d records, want %d", n, warmRecords)
		}
		return nil
	}()
	cpu := cpuTime() - cpu0
	if err != nil {
		return nil, 0, errors.Join(fmt.Errorf("boot %d: %w", k, err), b.stop())
	}
	return b, cpu, nil
}

// outcome is what one operation returns. cpu is the processor time the
// process (server and client) spent from the operation's first request byte
// to its last response byte, without drawing its inputs.
type outcome struct {
	cpu time.Duration
	// repairTime is the wall time of the operation's repair request.
	repairTime time.Duration
}

// checkedRepair is one served repair kept for verification against the
// in-process library path.
type checkedRepair struct {
	planID   string
	research []byte // research CSV the plan was designed from (design ops)
	body     int    // index into inputs.sent
	seed     int
	resp     []byte
}

// loop holds the state one run's operations share.
type loop struct {
	w  workload
	in *inputs
	b  *boot
	// firstResp[b] is the first response to body b; every later response
	// to the same body and seed must be byte-identical.
	firstResp [][]byte
	// poolIDs[i] is the plan id research pool set i designed to.
	poolIDs []string
	checked []checkedRepair
}

// op runs operation i.
func (l *loop) op(i int) (outcome, error) {
	if l.w.designs {
		return l.designOp(i)
	}
	body := i % len(l.in.body)
	start, cpu0 := time.Now(), cpuTime()
	resp, err := l.b.cl.post(l.w.repairPath(l.b.planID, l.b.calID, body+1), l.w.contentType(), l.in.body[body])
	elapsed, cpu := time.Since(start), cpuTime()-cpu0
	if err != nil {
		return outcome{}, err
	}
	if err := l.sameAsFirst(body, resp); err != nil {
		return outcome{}, err
	}
	return outcome{cpu: cpu, repairTime: elapsed}, nil
}

func (l *loop) sameAsFirst(body int, resp []byte) error {
	if first := l.firstResp[body]; first != nil {
		if !bytes.Equal(resp, first) {
			return fmt.Errorf("body %d: response differs from the first response to the same request", body)
		}
		return nil
	}
	if n := recordCount(l.w.format, resp); n != l.w.archiveRecords {
		return fmt.Errorf("body %d: %d records, want %d", body, n, l.w.archiveRecords)
	}
	l.firstResp[body] = bytes.Clone(resp)
	l.checked = append(l.checked, checkedRepair{planID: l.b.planID, body: body, seed: body + 1, resp: l.firstResp[body]})
	return nil
}

// designOp designs a plan from a research set and repairs body 0 with it.
func (l *loop) designOp(i int) (outcome, error) {
	var research []byte
	if l.w.researchPool > 0 {
		research = l.in.pool[i%l.w.researchPool].csv
	} else {
		rs, err := l.in.research(l.in.r, l.w.serve.research)
		if err != nil {
			return outcome{}, err
		}
		research = rs.csv
	}
	cpu0 := cpuTime()
	planID, err := l.b.cl.postID("/v1/plans?"+l.w.serve.query(), "text/csv", research)
	if err != nil {
		return outcome{}, err
	}
	repairStart := time.Now()
	resp, err := l.b.cl.post(l.w.repairPath(planID, "", 1), l.w.contentType(), l.in.body[0])
	end, cpu := time.Now(), cpuTime()-cpu0
	if err != nil {
		return outcome{}, err
	}
	if n := recordCount(l.w.format, resp); n != l.w.archiveRecords {
		return outcome{}, fmt.Errorf("design op %d: repair returned %d records, want %d", i, n, l.w.archiveRecords)
	}
	if l.w.researchPool > 0 {
		set := i % l.w.researchPool
		if want := l.poolIDs[set]; want != "" && want != planID {
			return outcome{}, fmt.Errorf("research set %d designed to plan %s, earlier %s", set, planID, want)
		}
		l.poolIDs[set] = planID
	}
	if len(l.checked) < checkedDesigns {
		l.checked = append(l.checked, checkedRepair{planID: planID, research: research, body: 0, seed: 1, resp: bytes.Clone(resp)})
	}
	return outcome{cpu: cpu, repairTime: end.Sub(repairStart)}, nil
}

func run(w workload, cfg config) (*result, error) {
	in, err := generate(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	var (
		setup  []float64
		spent  time.Duration
		live   *boot
		bootID []string
		ref    = newRefKernel()
	)
	for k := 0; live == nil; k++ {
		b, cpu, err := coldBoot(w, in, k, cfg)
		if err != nil {
			return nil, err
		}
		setup = append(setup, cpu.Seconds())
		spent += cpu
		ref.run()
		bootID = append(bootID, b.planID)
		if k+1 < maxBoots && (k+1 < minBoots || spent < setupBudget) {
			if err := b.stop(); err != nil {
				return nil, err
			}
			continue
		}
		live = b
	}
	res, err := measure(w, in, live, ref, cfg)
	if stopErr := live.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}

	// Replay the last boots' designs without caches: the per-layer design
	// spans, and a check of each stored plan, the live one included.
	var sp designSpans
	checksFailed := 0
	for k := max(0, len(bootID)-replayedBoots); k < len(bootID); k++ {
		if err := checkDesign(in.setup[k].csv, w.serve, bootID[k], &sp); err != nil {
			checksFailed++
			fmt.Fprintf(os.Stderr, "boot %d: %v\n", k, err)
		}
	}
	for _, c := range res.checked {
		if err := verify(w, in, live, c, &sp); err != nil {
			checksFailed++
			fmt.Fprintf(os.Stderr, "verification: %v\n", err)
		}
	}

	out := &result{
		Correct:   res.failed == 0 && checksFailed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
	}
	if cfg.trace {
		out.Metrics = layerMetrics(res, &sp)
	} else {
		out.Metrics = endToEndMetrics(res, setup, ref.samples)
	}
	return out, nil
}

// measured is the raw record of one measured loop.
type measured struct {
	attempted int
	// failed counts operations that errored or whose output failed a check.
	failed int
	// cpuMS is the processor time of each operation that succeeded.
	cpuMS []float64
	// repairTime covers the repair requests alone.
	repairTime    time.Duration
	before, after map[string]float64
	checked       []checkedRepair
}

// measure runs the timed loop. After every operation it runs the reference
// kernel once, so the host's speed is sampled across the whole loop.
func measure(w workload, in *inputs, b *boot, ref *refKernel, cfg config) (*measured, error) {
	l := &loop{w: w, in: in, b: b, firstResp: make([][]byte, len(in.body)), poolIDs: make([]string, w.researchPool)}
	i := 0
	for ; i < warmOps; i++ {
		if _, err := l.op(i); err != nil {
			return nil, fmt.Errorf("warm-up operation %d: %w", i, err)
		}
	}
	m := &measured{}
	var err error
	if m.before, err = b.cl.scrape(); err != nil {
		return nil, err
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	loopStart := time.Now()
	for ; time.Since(loopStart) < budget; i++ {
		o, err := l.op(i)
		ref.run()
		m.attempted++
		if err != nil {
			m.failed++
			fmt.Fprintf(os.Stderr, "operation %d: %v\n", i, err)
			continue
		}
		m.cpuMS = append(m.cpuMS, float64(o.cpu)/float64(time.Millisecond))
		m.repairTime += o.repairTime
	}
	if m.after, err = b.cl.scrape(); err != nil {
		return nil, err
	}
	m.checked = l.checked
	return m, nil
}

// checkDesign replays a design and compares its fingerprint with the id
// the server stored.
func checkDesign(research []byte, cfg designConfig, id string, sp *designSpans) error {
	plan, err := replayDesign(research, cfg, sp)
	if err != nil {
		return err
	}
	fp, err := plan.Fingerprint()
	if err != nil {
		return err
	}
	if fp != id {
		return fmt.Errorf("server stored plan %s, cache-free replay designs %s", id, fp)
	}
	return nil
}

// verify checks one served repair against the in-process library path at
// the same plan, seed and (blind) method.
func verify(w workload, in *inputs, b *boot, c checkedRepair, sp *designSpans) error {
	if c.research != nil {
		if err := checkDesign(c.research, w.serve, c.planID, sp); err != nil {
			return err
		}
	}
	plan, err := b.srv.store.Get(c.planID)
	if err != nil {
		return err
	}
	sent := in.sent[c.body]
	var want *dataset.Table
	if w.blind {
		rp, err := blind.New(plan, in.setup[len(in.setup)-1].table, rng.New(uint64(c.seed)), blind.Options{Method: blind.MethodDraw})
		if err != nil {
			return err
		}
		if want, err = rp.RepairTable(sent); err != nil {
			return err
		}
	} else {
		rp, err := core.NewRepairer(plan, rng.New(uint64(c.seed)), core.RepairOptions{})
		if err != nil {
			return err
		}
		if want, err = rp.RepairTable(sent); err != nil {
			return err
		}
	}
	got, err := decode(w.format, sent.Dim(), c.resp)
	if err != nil {
		return fmt.Errorf("plan %s body %d: decoding response: %w", c.planID, c.body, err)
	}
	if err := sameRecords(got, want); err != nil {
		return fmt.Errorf("plan %s body %d: served repair differs from the library: %w", c.planID, c.body, err)
	}
	return nil
}

// endToEndMetrics are the median processor time of an operation and of a
// boot, both scaled to the nominal host (see refKernel) by the run's median
// reference sample.
func endToEndMetrics(m *measured, setup, refMS []float64) map[string]metric {
	scale := refNominalMS / quantile(refMS, 0.50)
	return map[string]metric{
		"norm_cpu_ms_per_op": {quantile(m.cpuMS, 0.50) * scale, "ms"},
		"setup_s":            {quantile(setup, 0.50) * scale, "s"},
	}
}

// layerMetrics are the per-layer figures of a traced run: the server's own
// stage histograms over the measured loop, per record repaired, and the
// replay's spans per designed cell.
func layerMetrics(m *measured, sp *designSpans) map[string]metric {
	delta := func(key string) float64 { return m.after[key] - m.before[key] }
	records := delta("otfair_repair_records_total")
	perRecord := func(seconds float64) float64 { return seconds * 1e9 / records }
	out := map[string]metric{
		"serve_records": {records, "count"},
		// Client-observed repair time the server's own request histogram
		// does not cover: loopback transport and the client's reads.
		"serve_transport_ns_per_rec": {perRecord(m.repairTime.Seconds() - delta(`otfair_http_request_seconds_sum{route="repair"}`)), "ns"},
		"plans_request_ms": {m.after[`otfair_http_request_seconds_sum{route="plans"}`] * 1e3 /
			m.after[`otfair_http_request_seconds_count{route="plans"}`], "ms"},
		"design_cache_hits":         {delta("otfair_design_cache_hits_total"), "count"},
		"design_cache_misses":       {delta("otfair_design_cache_misses_total"), "count"},
		"design_decode_us":          {micros(sp.decode) / float64(sp.designs), "us"},
		"design_kde_us_per_cell":    {micros(sp.kde) / float64(sp.cells), "us"},
		"design_target_us_per_cell": {micros(sp.target) / float64(sp.cells), "us"},
		"design_plan_us_per_cell":   {micros(sp.plan) / float64(sp.cells), "us"},
	}
	for _, stage := range []struct{ name, label string }{
		{"serve_admission_ns_per_rec", "admission"},
		{"serve_spool_ns_per_rec", "spool"},
		{"serve_decode_ns_per_rec", "decode"},
		{"serve_engine_ns_per_rec", "shard_execute"},
		{"serve_encode_ns_per_rec", "encode"},
		{"serve_flush_ns_per_rec", "flush"},
	} {
		out[stage.name] = metric{perRecord(delta(`otfair_repair_stage_seconds_sum{stage="` + stage.label + `"}`)), "ns"}
	}
	return out
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
