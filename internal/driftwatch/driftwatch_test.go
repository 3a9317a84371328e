package driftwatch

import (
	"math"
	"strings"
	"testing"

	"otfair/internal/dataset"
	"otfair/internal/obs"
)

func healthy(w *Watcher) { w.SetScores(0.3, 0.2) }
func drifted(w *Watcher) { w.SetScores(1.8, 0.9) }

func TestStateMachineHappyPath(t *testing.T) {
	reg := obs.NewRegistry()
	w := New("aaaabbbbccccdddd", Config{AlarmAfter: 3, QuietAfter: 4}, reg)
	if w.State() != StateOK {
		t.Fatalf("initial state %v", w.State())
	}
	healthy(w)
	if w.State() != StateOK {
		t.Fatalf("healthy score moved state to %v", w.State())
	}
	drifted(w)
	if w.State() != StateWarning {
		t.Fatalf("first alarming score: state %v, want warning", w.State())
	}
	if _, ok := w.ShouldRecalibrate(); ok {
		t.Fatal("warning state offered recalibration")
	}
	drifted(w)
	drifted(w)
	if w.State() != StateAlarmed {
		t.Fatalf("after AlarmAfter alarming scores: state %v, want alarmed", w.State())
	}
	run, ok := w.ShouldRecalibrate()
	if !ok || run == "" {
		t.Fatalf("alarmed state refused recalibration (run %q, ok %v)", run, ok)
	}
	if !strings.HasPrefix(run, "aaaabbbbcccc/run") {
		t.Errorf("run ID %q not artefact-prefixed", run)
	}
	if _, ok := w.ShouldRecalibrate(); ok {
		t.Fatal("second claim succeeded; loop ownership not exclusive")
	}
	if w.State() != StateRecalibrating {
		t.Fatalf("state %v after claim, want recalibrating", w.State())
	}
	// Scores keep updating for export, but the loop owns the state now.
	drifted(w)
	if w.State() != StateRecalibrating {
		t.Fatalf("score update moved loop-owned state to %v", w.State())
	}
	w.StartCanary()
	if w.State() != StateCanarying {
		t.Fatalf("state %v, want canarying", w.State())
	}
	w.Finish(OutcomeSwapped, "")
	if w.State() != StateSwapped {
		t.Fatalf("state %v, want swapped", w.State())
	}
	// Quiet period: alarming scores must not re-arm until QuietAfter
	// observations have passed.
	drifted(w)
	if w.State() != StateSwapped {
		t.Fatalf("quiet period broken: state %v", w.State())
	}
	rec := dataset.Record{X: []float64{1, 2}, S: 0, U: 0}
	for i := 0; i < 4; i++ {
		w.Observe(rec)
	}
	if w.State() != StateOK {
		t.Fatalf("after quiet period: state %v, want ok", w.State())
	}
	// And the machine re-arms cleanly on fresh drift.
	drifted(w)
	drifted(w)
	drifted(w)
	if w.State() != StateAlarmed {
		t.Fatalf("re-armed machine at %v, want alarmed", w.State())
	}
	run2, ok := w.ShouldRecalibrate()
	if !ok || run2 == run {
		t.Fatalf("second loop run %q (first %q)", run2, run)
	}
}

func TestWarningRecedesToOK(t *testing.T) {
	w := New("feedfacefeedface", Config{AlarmAfter: 3}, nil)
	drifted(w)
	if w.State() != StateWarning {
		t.Fatalf("state %v", w.State())
	}
	healthy(w)
	if w.State() != StateOK {
		t.Fatalf("transient excursion stuck at %v", w.State())
	}
	// The hot streak must reset: two more excursions stay in warning.
	drifted(w)
	drifted(w)
	if w.State() != StateWarning {
		t.Fatalf("hot streak not reset: state %v", w.State())
	}
}

func TestConfidenceDriftArms(t *testing.T) {
	w := New("0123456789abcdef", Config{AlarmAfter: 2, ConfidenceAlarm: 0.1}, nil)
	w.SetConfidenceDrift(-0.05)
	if w.State() != StateOK {
		t.Fatalf("sub-threshold drift armed: %v", w.State())
	}
	w.SetConfidenceDrift(-0.2) // |drift|/alarm = 2 ≥ 1
	w.SetConfidenceDrift(0.15)
	if w.State() != StateAlarmed {
		t.Fatalf("confidence drift did not alarm: %v", w.State())
	}
	if s := w.Snapshot(); math.Abs(s.ConfidenceScore-1.5) > 1e-9 {
		t.Errorf("ConfidenceScore = %v, want 1.5", s.ConfidenceScore)
	}
}

func TestRollbackQuietPreventsAlarmLoop(t *testing.T) {
	w := New("deadbeefdeadbeef", Config{AlarmAfter: 1, QuietAfter: 8}, nil)
	drifted(w)
	if _, ok := w.ShouldRecalibrate(); !ok {
		t.Fatal("no claim")
	}
	w.StartCanary()
	w.Finish(OutcomeRolledBack, ReasonERegressed)
	if w.State() != StateRolledBack {
		t.Fatalf("state %v", w.State())
	}
	// Drift persists (the rejected refit didn't fix it) — but the quiet
	// period must hold the machine out of an immediate refit loop.
	for i := 0; i < 5; i++ {
		drifted(w)
	}
	if w.State() != StateRolledBack {
		t.Fatalf("rolled-back machine re-armed during quiet: %v", w.State())
	}
	s := w.Snapshot()
	if s.LastOutcome != OutcomeRolledBack || s.LastReason != ReasonERegressed {
		t.Errorf("snapshot outcome/reason = %q/%q", s.LastOutcome, s.LastReason)
	}
}

func TestReservoirUniformAndBounded(t *testing.T) {
	w := New("cafebabecafebabe", Config{ReservoirSize: 64}, nil)
	x := []float64{0}
	for i := 0; i < 10000; i++ {
		x[0] = float64(i)
		w.Observe(dataset.Record{X: x, S: i % 2, U: 0})
	}
	sample := w.ReservoirSample()
	if len(sample) != 64 {
		t.Fatalf("reservoir holds %d records, want 64", len(sample))
	}
	// Uniformity smoke check: the sample mean index of a uniform draw from
	// [0,10000) concentrates near 5000; σ of the mean ≈ 2887/8 ≈ 361.
	mean := 0.0
	for _, r := range sample {
		mean += r.X[0]
	}
	mean /= float64(len(sample))
	if mean < 3500 || mean > 6500 {
		t.Errorf("reservoir sample mean index %v; not plausibly uniform", mean)
	}
	// The reservoir copied X — mutating the caller's buffer must not
	// corrupt the sample.
	x[0] = math.Inf(1)
	for _, r := range sample {
		if math.IsInf(r.X[0], 1) {
			t.Fatal("reservoir aliases the caller's X buffer")
		}
	}
}

func TestReservoirSkipsUnlabelled(t *testing.T) {
	w := New("0000111122223333", Config{}, nil)
	w.Observe(dataset.Record{X: []float64{1}, S: dataset.SUnknown, U: 0})
	if n := len(w.ReservoirSample()); n != 0 {
		t.Fatalf("unlabelled record entered the reservoir (%d)", n)
	}
	w.Observe(dataset.Record{X: []float64{1}, S: 1, U: 0})
	if n := len(w.ReservoirSample()); n != 1 {
		t.Fatalf("labelled record missing (%d)", n)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	cfg := Config{MaxERise: 0, MaxDamageRise: 0.25}
	ok := CanaryStats{E: 0.5, Damage: 1.0, Records: 100}
	cases := []struct {
		name   string
		old    CanaryStats
		new    CanaryStats
		pass   bool
		reason string
	}{
		{"better", ok, CanaryStats{E: 0.3, Damage: 0.9, Records: 100}, true, ""},
		// Equal E passes: tracking the drifted population is the goal, not
		// beating the incumbent.
		{"equal", ok, ok, true, ""},
		{"e rise", ok, CanaryStats{E: 0.6, Damage: 1.0, Records: 100}, false, ReasonERegressed},
		{"damage within", ok, CanaryStats{E: 0.5, Damage: 1.2, Records: 100}, true, ""},
		{"damage rise", ok, CanaryStats{E: 0.5, Damage: 1.3, Records: 100}, false, ReasonDamageRegressed},
		{"empty old", CanaryStats{}, ok, false, ReasonEmptyReservoir},
		{"empty new", ok, CanaryStats{}, false, ReasonEmptyReservoir},
		{"nan e", ok, CanaryStats{E: math.NaN(), Damage: 1, Records: 100}, false, ReasonNaNMetric},
		{"nan damage old", CanaryStats{E: 0.5, Damage: math.NaN(), Records: 100}, ok, false, ReasonNaNMetric},
	}
	for _, tc := range cases {
		v := Judge(tc.old, tc.new, cfg)
		if v.Pass != tc.pass || v.Reason != tc.reason {
			t.Errorf("%s: Judge = (pass %v, reason %q), want (%v, %q)",
				tc.name, v.Pass, v.Reason, tc.pass, tc.reason)
		}
	}
}

func TestMetricsExported(t *testing.T) {
	reg := obs.NewRegistry()
	w := New("1111222233334444", Config{AlarmAfter: 1, QuietAfter: 2}, reg)
	drifted(w)
	if _, ok := w.ShouldRecalibrate(); !ok {
		t.Fatal("no claim")
	}
	w.StartCanary()
	w.Finish(OutcomeSwapped, "")
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	byKey := map[string]float64{}
	for _, s := range samples {
		byKey[s.Name+"{"+s.Labels+"}"] = s.Value
	}
	art := `artefact="1111222233334444"`
	for key, want := range map[string]float64{
		"otfair_drift_state{" + art + "}":                                float64(StateSwapped),
		"otfair_drift_score{" + art + `,stat="ks"}`:                      1.8,
		"otfair_drift_transitions_total{" + art + `,to="warning"}`:       1,
		"otfair_drift_transitions_total{" + art + `,to="alarmed"}`:       1,
		"otfair_drift_transitions_total{" + art + `,to="recalibrating"}`: 1,
		"otfair_drift_transitions_total{" + art + `,to="canarying"}`:     1,
		"otfair_drift_transitions_total{" + art + `,to="swapped"}`:       1,
		"otfair_recalibrations_total{" + `outcome="swapped"}`:            1,
		"otfair_recalibrations_total{" + `outcome="rolled_back"}`:        0,
		"otfair_canary_failures_total{" + `reason="e_regressed"}`:        0,
	} {
		got, ok := byKey[key]
		if !ok {
			t.Errorf("series %s missing from exposition", key)
		} else if got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
}

func TestRebindOverwritesScrapeClosures(t *testing.T) {
	// A plan eviction/rebind cycle creates a fresh watcher for the same
	// artefact; the registry must serve the new watcher's values, not the
	// dead one's.
	reg := obs.NewRegistry()
	old := New("5555666677778888", Config{}, reg)
	old.SetScores(0.9, 0.9)
	nw := New("5555666677778888", Config{}, reg)
	nw.SetScores(0.1, 0.1)
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.Name == "otfair_drift_score" && strings.Contains(s.Labels, `stat="ks"`) {
			if s.Value != 0.1 {
				t.Errorf("rebind left stale scrape closure: ks score %v, want 0.1", s.Value)
			}
		}
	}
}

// ReservoirSample returns a copy of the current canary reservoir.
func (w *Watcher) ReservoirSample() []dataset.Record {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.res.records()
}
