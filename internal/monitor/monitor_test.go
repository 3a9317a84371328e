package monitor

import (
	"io"
	"testing"

	"otfair/internal/adult"
	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/kde"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

func designPaperPlan(t testing.TB, seed uint64, nR int) (*core.Plan, *simulate.Sampler) {
	t.Helper()
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	research, _, err := sampler.ResearchArchive(rng.New(seed), nR, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Design(research, core.Options{NQ: 50})
	if err != nil {
		t.Fatal(err)
	}
	return plan, sampler
}

func TestNewValidation(t *testing.T) {
	plan, _ := designPaperPlan(t, 1, 600)
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := New(plan, Options{Window: 4}); err == nil {
		t.Error("tiny window accepted")
	}
	if _, err := New(plan, Options{Alpha: 2}); err == nil {
		t.Error("bad alpha accepted")
	}
}

func TestObserveValidation(t *testing.T) {
	plan, _ := designPaperPlan(t, 2, 600)
	m, err := New(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Observe(dataset.Record{X: []float64{0, 0}, S: 7, U: 0}); err == nil {
		t.Error("bad s accepted")
	}
	if _, err := m.Observe(dataset.Record{X: []float64{0}, S: 0, U: 0}); err == nil {
		t.Error("wrong dimension accepted")
	}
	// Unknown-s records are ignored, not errors.
	alarms, err := m.Observe(dataset.Record{X: []float64{0, 0}, S: dataset.SUnknown, U: 0})
	if err != nil || alarms != nil {
		t.Errorf("unknown s: got (%v, %v)", alarms, err)
	}
}

func TestStationaryStreamStaysQuiet(t *testing.T) {
	plan, sampler := designPaperPlan(t, 3, 1000)
	m, err := New(plan, Options{Window: 256})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	total := 0
	for i := 0; i < 20000; i++ {
		alarms, err := m.Observe(sampler.Draw(r))
		if err != nil {
			t.Fatal(err)
		}
		total += len(alarms)
	}
	// The reference pmfs carry smoothing and quantization bias, so allow a
	// rare excursion; a stationary stream must not page anyone.
	if total > 2 {
		t.Errorf("stationary stream raised %d alarms over 20k records", total)
	}
}

func TestDriftingStreamAlarms(t *testing.T) {
	plan, _ := designPaperPlan(t, 5, 1000)
	m, err := New(plan, Options{Window: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Drift the (u=0, s=1) group by 1.5σ via the drift stream substrate.
	ds, err := simulate.NewDriftStream(simulate.Paper(), rng.New(6), simulate.Drift{
		Group: map[dataset.Group][]float64{
			{U: 0, S: 1}: {1.5, 1.5},
		},
	}, 12000)
	if err != nil {
		t.Fatal(err)
	}
	var fired []Alarm
	for {
		rec, err := ds.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		alarms, err := m.Observe(rec)
		if err != nil {
			t.Fatal(err)
		}
		fired = append(fired, alarms...)
	}
	if len(fired) == 0 {
		t.Fatal("drifting stream raised no alarms")
	}
	// The drift is localized: late alarms (full drift) must point at the
	// drifted group. Early windows straddle the ramp, so check the last.
	last := fired[len(fired)-1]
	if last.U != 0 || last.S != 1 {
		t.Errorf("final alarm points at (u=%d,s=%d), want (0,1): %v", last.U, last.S, last)
	}
	if m.Fired() != int64(len(fired)) {
		t.Errorf("Fired() = %d, want %d", m.Fired(), len(fired))
	}
	// Cooldown keeps the alarm rate sane: far fewer alarms than records.
	if len(fired) > 200 {
		t.Errorf("%d alarms for 12k drifting records; cooldown broken", len(fired))
	}
}

func TestSnapshotDriftScores(t *testing.T) {
	plan, sampler := designPaperPlan(t, 12, 1000)
	m, err := New(plan, Options{Window: 256})
	if err != nil {
		t.Fatal(err)
	}
	if s := m.Snapshot(); s.MaxKSRatio != 0 || s.MaxPSIRatio != 0 {
		t.Errorf("empty monitor has nonzero drift scores: %+v", s)
	}
	// A stationary stream must populate the scores (windows fill, checks
	// run) while keeping them below the alarm bound.
	r := rng.New(13)
	for i := 0; i < 4000; i++ {
		if _, err := m.Observe(sampler.Draw(r)); err != nil {
			t.Fatal(err)
		}
	}
	quiet := m.Snapshot()
	if quiet.FullWindows == 0 {
		t.Fatal("no windows filled after 4000 records")
	}
	if quiet.MaxKSRatio <= 0 || quiet.MaxPSIRatio <= 0 {
		t.Errorf("filled windows left drift scores at zero: %+v", quiet)
	}
	if quiet.MaxKSRatio >= 1 {
		t.Errorf("stationary stream has alarming KS ratio %v", quiet.MaxKSRatio)
	}
	// A fully-drifted stream must push the KS score past the alarm bound.
	ds, err := simulate.NewDriftStream(simulate.Paper(), rng.New(14), simulate.Drift{
		Group: map[dataset.Group][]float64{
			{U: 0, S: 1}: {2.0, 2.0},
		},
	}, 8000)
	if err != nil {
		t.Fatal(err)
	}
	for {
		rec, err := ds.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Observe(rec); err != nil {
			t.Fatal(err)
		}
	}
	drifted := m.Snapshot()
	if drifted.MaxKSRatio <= 1 {
		t.Errorf("fully drifted stream left MaxKSRatio at %v, want > 1", drifted.MaxKSRatio)
	}
	if drifted.MaxKSRatio <= quiet.MaxKSRatio {
		t.Errorf("drift did not raise the KS score (%v → %v)", quiet.MaxKSRatio, drifted.MaxKSRatio)
	}
}

func TestAlarmStringRenders(t *testing.T) {
	a := Alarm{U: 1, S: 0, K: 1, Kind: AlarmPSI, Stat: 0.31, Threshold: 0.2, Window: 256, Seen: 4096}
	s := a.String()
	if s == "" {
		t.Fatal("empty alarm string")
	}
	for _, want := range []string{"u=1", "s=0", "k=1", "psi"} {
		if !contains(s, want) {
			t.Errorf("alarm string %q missing %q", s, want)
		}
	}
	if AlarmKS.String() != "ks" {
		t.Errorf("AlarmKS renders as %q", AlarmKS.String())
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestStoppingRuleConvergesBeforeExhaustion(t *testing.T) {
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	research, _, err := sampler.ResearchArchive(rng.New(7), 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ResearchStoppingRule(research, StoppingOptions{Batch: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("rule never converged on 3000 Gaussian records: %+v", res.Trace)
	}
	if res.NStop >= 3000 {
		t.Errorf("NStop = %d, want convergence before exhaustion", res.NStop)
	}
	if res.NStop < 200 {
		t.Errorf("NStop = %d suspiciously early for 4-group KDE convergence", res.NStop)
	}
	// The trace's deltas must shrink overall: compare first vs last.
	if len(res.Trace) < 2 {
		t.Fatalf("trace too short: %+v", res.Trace)
	}
	if res.Trace[len(res.Trace)-1].Delta >= res.Trace[0].Delta {
		t.Errorf("deltas did not shrink: first %v, last %v",
			res.Trace[0].Delta, res.Trace[len(res.Trace)-1].Delta)
	}
}

func TestStoppingRuleToleranceMonotone(t *testing.T) {
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	research, _, err := sampler.ResearchArchive(rng.New(8), 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := ResearchStoppingRule(research, StoppingOptions{Batch: 100, Tol: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := ResearchStoppingRule(research, StoppingOptions{Batch: 100, Tol: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	if loose.NStop > tight.NStop {
		t.Errorf("loose tolerance stopped later (%d) than tight (%d)", loose.NStop, tight.NStop)
	}
}

func TestStoppingRuleValidation(t *testing.T) {
	if _, err := ResearchStoppingRule(nil, StoppingOptions{}); err == nil {
		t.Error("nil table accepted")
	}
	sampler, _ := simulate.NewSampler(simulate.Paper())
	research, _, _ := sampler.ResearchArchive(rng.New(9), 200, 0)
	if _, err := ResearchStoppingRule(research, StoppingOptions{Tol: -1}); err == nil {
		t.Error("negative tolerance accepted")
	}
	if _, err := ResearchStoppingRule(research, StoppingOptions{Batch: -5}); err == nil {
		t.Error("negative batch accepted")
	}
}

func TestStoppingRuleNonConvergent(t *testing.T) {
	// Too little data for the tight tolerance: the rule must run out and
	// report Converged = false with NStop = len.
	sampler, _ := simulate.NewSampler(simulate.Paper())
	research, _, _ := sampler.ResearchArchive(rng.New(10), 250, 0)
	res, err := ResearchStoppingRule(research, StoppingOptions{Batch: 50, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("impossible tolerance reported convergence")
	}
	if res.NStop != 250 {
		t.Errorf("NStop = %d, want 250", res.NStop)
	}
}

func TestDitherQuietsAtomicFeatures(t *testing.T) {
	// Adult-like synthetic features are integer-valued with a heavy
	// 40-hours atom; the KDE-smoothed reference then disagrees with the
	// raw empirical window systematically. Dithering the incoming values
	// by the design bandwidth (mirroring the repair path's KernelDither)
	// must remove most of those false alarms. Scott's bandwidth is used
	// because Silverman's IQR term collapses on atom-heavy columns.
	r := rng.New(11)
	research, _, err := adult.Synthesize(r, 3000)
	if err != nil {
		t.Fatal(err)
	}
	archive, _, err := adult.Synthesize(r.Split(1), 6000)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Design(research, core.Options{NQ: 100, Bandwidth: kde.Scott})
	if err != nil {
		t.Fatal(err)
	}
	count := func(dither bool) int64 {
		m, err := New(plan, Options{Window: 256, Dither: dither})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range archive.Records() {
			if _, err := m.Observe(rec); err != nil {
				t.Fatal(err)
			}
		}
		return m.Fired()
	}
	raw := count(false)
	dithered := count(true)
	if dithered > 3 {
		t.Errorf("dithered monitor raised %d alarms on an iid atomic stream", dithered)
	}
	if raw <= dithered {
		t.Errorf("dithering did not reduce alarms (%d → %d)", raw, dithered)
	}
}

// TestObserveAllocs pins the steady-state tap at zero allocations: once
// every cell's window is full and has been checked, Observe of a record
// that raises no alarm — here every record, since the thresholds are out
// of reach — allocates nothing, the check's KS and PSI passes included.
func TestObserveAllocs(t *testing.T) {
	plan, sampler := designPaperPlan(t, 3, 600)
	for _, opts := range []Options{
		{Window: 64, CheckEvery: 1, Alpha: 1e-300, PSIWarn: 1e6},
		{Window: 100, CheckEvery: 1, Alpha: 1e-300, PSIWarn: 1e6, Dither: true},
	} {
		m, err := New(plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(7)
		recs := make([]dataset.Record, 4000)
		for i := range recs {
			recs[i] = sampler.Draw(r)
			if _, err := m.Observe(recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i, cs := range m.cells {
			if cs == nil || cs.n < len(cs.ring) || m.refs[i] == nil {
				t.Fatalf("opts %+v: cell %d not full and checked after %d records", opts, i, len(recs))
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(500, func() {
			alarms, err := m.Observe(recs[i%len(recs)])
			if err != nil || len(alarms) > 0 {
				t.Fatalf("opts %+v: Observe = %v, %v", opts, alarms, err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("opts %+v: Observe allocates %v times per record, want 0", opts, allocs)
		}
	}
}

// BenchmarkMonitorObserve times the drift monitor's per-record tap at the
// default options (256-value windows checked every 64 values per cell) on
// a stationary stream, so the windows are full and checks run.
func BenchmarkMonitorObserve(b *testing.B) {
	plan, sampler := designPaperPlan(b, 3, 600)
	m, err := New(plan, Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(7)
	recs := make([]dataset.Record, 8192)
	for i := range recs {
		recs[i] = sampler.Draw(r)
		if _, err := m.Observe(recs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Observe(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}
