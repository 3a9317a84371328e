package otfair_test

// Benchmarks for the Section VI extension modules: blind (s|u-unlabelled)
// repair, joint multivariate repair, continuous-u binned repair, the drift
// monitor and the new ablation harnesses (X7–X13). Same convention as
// bench_test.go: reduced replicate counts per iteration, identical code
// paths and paper-scale data sizes.

import (
	"testing"

	"otfair/internal/blind"
	"otfair/internal/contu"
	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/experiment"
	"otfair/internal/fairmetrics"
	"otfair/internal/joint"
	"otfair/internal/monitor"
	"otfair/internal/rng"
)

// BenchmarkBlindRepair measures the per-record cost of each label-free
// strategy against the labelled repair at the paper's archive scale.
func BenchmarkBlindRepair(b *testing.B) {
	research, archive := benchSimData(b, 500, 5000)
	unlabelled := archive.DropS()
	plan, err := core.Design(research, core.Options{NQ: 50})
	if err != nil {
		b.Fatal(err)
	}
	for _, method := range []blind.Method{blind.MethodHard, blind.MethodDraw, blind.MethodMix, blind.MethodPooled} {
		b.Run(method.String(), func(b *testing.B) {
			rp, err := blind.New(plan, research, rng.New(1), blind.Options{Method: method})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rp.RepairTable(unlabelled); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQDAPosterior measures the streaming soft-labeller alone.
func BenchmarkQDAPosterior(b *testing.B) {
	research, archive := benchSimData(b, 500, 1000)
	q, err := blind.NewQDA(research)
	if err != nil {
		b.Fatal(err)
	}
	recs := archive.Records()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Posterior(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJointDesign measures the multivariate Algorithm-1 analogue — the
// curse-of-dimensionality cost the paper's feature split avoids (X8), on
// the Kronecker-factored (separable) Gibbs path. The dense oracle it
// replaced is timed by BenchmarkJointDesignDense in internal/joint.
func BenchmarkJointDesign(b *testing.B) {
	research, _ := benchSimData(b, 500, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := joint.Design(research, joint.Options{NQ: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJointRepair measures joint per-record repair at archive scale.
func BenchmarkJointRepair(b *testing.B) {
	research, archive := benchSimData(b, 500, 5000)
	plan, err := joint.Design(research, joint.Options{NQ: 16})
	if err != nil {
		b.Fatal(err)
	}
	rp, err := joint.NewRepairer(plan, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.RepairTable(archive); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSimData3D draws a three-feature scenario at the given sizes: the
// d = 3 workload (NQ = 20 → 8 000 product states) the dense joint design
// could never touch — its cost matrix alone would be 8000² floats.
func benchSimData3D(b *testing.B, nR, nA int) (research, archive *dataset.Table) {
	b.Helper()
	r := rng.New(101)
	draw := func(n int) *dataset.Table {
		tab := dataset.MustTable(3, nil)
		for i := 0; i < n; i++ {
			u := i % 2
			s := (i / 2) % 2
			shift := float64(s)
			rec := dataset.Record{
				X: []float64{r.Normal(shift, 1), r.Normal(shift, 1), r.Normal(-shift, 1)},
				S: s, U: u,
			}
			if err := tab.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
		return tab
	}
	return draw(nR), draw(nA)
}

// BenchmarkJointDesign3D measures the separable design on the 8 000-state
// product support (NQ = 20, d = 3).
func BenchmarkJointDesign3D(b *testing.B) {
	research, _ := benchSimData3D(b, 600, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := joint.Design(research, joint.Options{NQ: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJointRepair3D measures archive repair over the 8 000-state
// design: plan rows are materialized lazily and alias tables cached per
// visited row.
func BenchmarkJointRepair3D(b *testing.B) {
	research, archive := benchSimData3D(b, 600, 5000)
	plan, err := joint.Design(research, joint.Options{NQ: 20})
	if err != nil {
		b.Fatal(err)
	}
	rp, err := joint.NewRepairer(plan, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.RepairTable(archive); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEJoint measures the multivariate dependence metric.
func BenchmarkEJoint(b *testing.B) {
	_, archive := benchSimData(b, 100, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fairmetrics.EJoint(archive, fairmetrics.JointConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchContinuousData draws the continuous-u scenario at the given size.
func benchContinuousData(b *testing.B, n int) []contu.Record {
	b.Helper()
	r := rng.New(7)
	recs := make([]contu.Record, n)
	for i := range recs {
		u := r.Float64()
		s := 0
		if r.Bernoulli(0.5) {
			s = 1
		}
		base := 2*u - 1
		shift := 0.0
		if s == 1 {
			shift = 2 * (1 - u)
		}
		recs[i] = contu.Record{
			X: []float64{r.Normal(base+shift, 1), r.Normal(base+shift, 1)},
			S: s, U: u,
		}
	}
	return recs
}

// BenchmarkContinuousRepair measures the binned continuous-u pipeline
// (design + archive repair) at the X9 setting.
func BenchmarkContinuousRepair(b *testing.B) {
	research := benchContinuousData(b, 1000)
	archive := benchContinuousData(b, 5000)
	plan, err := contu.Design(research, 2, contu.Options{Bins: 4, Blend: true, Core: core.Options{NQ: 50}})
	if err != nil {
		b.Fatal(err)
	}
	rp, err := contu.NewRepairer(plan, rng.New(3), core.RepairOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.RepairAll(archive); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorObserve measures the per-record cost of the stationarity
// guard on a stationary torrent — the overhead a deployment pays to know
// its plan is still valid.
func BenchmarkMonitorObserve(b *testing.B) {
	research, archive := benchSimData(b, 500, 5000)
	plan, err := core.Design(research, core.Options{NQ: 50})
	if err != nil {
		b.Fatal(err)
	}
	m, err := monitor.New(plan, monitor.Options{Window: 256})
	if err != nil {
		b.Fatal(err)
	}
	recs := archive.Records()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Observe(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoppingRule measures one full accrual replay (X13 setting).
func BenchmarkStoppingRule(b *testing.B) {
	research, _ := benchSimData(b, 3000, 0)
	for i := 0; i < b.N; i++ {
		if _, err := monitor.ResearchStoppingRule(research, monitor.StoppingOptions{Batch: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBlind regenerates the X7 table (2 replicates).
func BenchmarkAblationBlind(b *testing.B) {
	cfg := experiment.SimConfig{Reps: 2, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationBlind(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationJoint regenerates the X8 table (1 replicate).
func BenchmarkAblationJoint(b *testing.B) {
	cfg := experiment.SimConfig{Reps: 1, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationJoint(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationContinuousU regenerates two X9 sweep points.
func BenchmarkAblationContinuousU(b *testing.B) {
	cfg := experiment.SimConfig{Reps: 2, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationContinuousU(cfg, []int{1, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTarget regenerates the X10 table (2 replicates).
func BenchmarkAblationTarget(b *testing.B) {
	cfg := experiment.SimConfig{Reps: 2, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationTarget(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationIndividual regenerates two X11 sweep points.
func BenchmarkAblationIndividual(b *testing.B) {
	cfg := experiment.SimConfig{Reps: 2, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationIndividual(cfg, []int{10, 50}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMonitor regenerates two X12 rows (2 replicates).
func BenchmarkAblationMonitor(b *testing.B) {
	cfg := experiment.SimConfig{Reps: 2, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationMonitor(cfg, []float64{0, 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStopping regenerates two X13 rows (2 replicates).
func BenchmarkAblationStopping(b *testing.B) {
	cfg := experiment.SimConfig{Reps: 2, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationStopping(cfg, []float64{0.1, 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}
