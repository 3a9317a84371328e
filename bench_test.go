package otfair_test

// One benchmark per paper artefact (Table I, Figure 3, Figure 4, Table II)
// plus micro-benchmarks of the repair pipeline's stages. The table/figure
// benches run reduced replicate counts per iteration — regenerating the
// full-paper versions is cmd/repro's job — but exercise exactly the same
// code paths with the paper's data sizes.

import (
	"testing"

	"otfair"
	"otfair/internal/adult"
	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/experiment"
	"otfair/internal/fairmetrics"
	"otfair/internal/ot"
	"otfair/internal/rng"
	"otfair/internal/simulate"
	"otfair/internal/stat"
)

// benchSimData caches one draw of the paper's simulation setting.
func benchSimData(b *testing.B, nR, nA int) (research, archive *dataset.Table) {
	b.Helper()
	s, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(99)
	research, archive, err = s.ResearchArchive(r, nR, nA)
	if err != nil {
		b.Fatal(err)
	}
	return research, archive
}

// BenchmarkTable1 regenerates Table I cells (2 MC replicates per iteration)
// at the paper's nR=500, nA=5000, nQ=50 setting.
func BenchmarkTable1(b *testing.B) {
	cfg := experiment.SimConfig{Reps: 2, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.TableI(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 sweeps three nR points with 2 replicates each.
func BenchmarkFigure3(b *testing.B) {
	cfg := experiment.SimConfig{Reps: 2, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure3(cfg, []int{100, 350, 750}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 sweeps three nQ points with 2 replicates each.
func BenchmarkFigure4(b *testing.B) {
	cfg := experiment.SimConfig{Reps: 2, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure4(cfg, []int{10, 30, 50}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table II (1 replicate per iteration) at the
// paper's nR=10000, nA=35222, nQ=250 setting on the synthetic source.
func BenchmarkTable2(b *testing.B) {
	cfg := experiment.AdultConfig{Reps: 1, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.TableII(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesign measures Algorithm 1 alone at the paper's simulation
// setting (4 (u,k) cells, nQ=50, nR=500).
func BenchmarkDesign(b *testing.B) {
	research, _ := benchSimData(b, 500, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Design(research, core.Options{NQ: 50}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignAdultScale measures Algorithm 1 at the Adult setting
// (nQ=250, nR=10000).
func BenchmarkDesignAdultScale(b *testing.B) {
	tbl, _, err := adult.Synthesize(rng.New(3), 10000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Design(tbl, core.Options{NQ: 250}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepairPoint measures the per-value cost of Algorithm 2 — the
// number that governs archival-torrent throughput.
func BenchmarkRepairPoint(b *testing.B) {
	research, _ := benchSimData(b, 500, 0)
	plan, err := core.Design(research, core.Options{NQ: 50})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := core.NewRepairer(plan, rng.New(1), core.RepairOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rep.RepairValue(0, 1, 0, float64(i%7)-3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepairTable measures batch repair of a 5000-record archive.
func BenchmarkRepairTable(b *testing.B) {
	research, archive := benchSimData(b, 500, 5000)
	plan, err := core.Design(research, core.Options{NQ: 50})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := core.NewRepairer(plan, rng.New(1), core.RepairOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rep.RepairTable(archive); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeometricRepair measures the baseline on the paper's research
// size.
func BenchmarkGeometricRepair(b *testing.B) {
	research, _ := benchSimData(b, 500, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GeometricRepair(research, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEMetric measures the default fairness-metric evaluation on a
// 5000-record table.
func BenchmarkEMetric(b *testing.B) {
	_, archive := benchSimData(b, 500, 5000)
	cfg := fairmetrics.Config{Estimator: fairmetrics.EstimatorPlugin}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fairmetrics.E(archive, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolvers compares the three OT solvers on one nQ=50 plan design
// problem (ablation X1's inner loop).
func BenchmarkSolvers(b *testing.B) {
	research, _ := benchSimData(b, 500, 0)
	pooled := research.UColumn(0, 0)
	lo, hi, err := stat.MinMax(pooled)
	if err != nil {
		b.Fatal(err)
	}
	grid := stat.Linspace(lo, hi, 50)
	mkPMF := func(s int) []float64 {
		col := research.GroupColumn(dataset.Group{U: 0, S: s}, 0)
		h, err := stat.NewHistogram(lo, hi, 50)
		if err != nil {
			b.Fatal(err)
		}
		for _, x := range col {
			h.Add(x)
		}
		pmf, err := h.PMF()
		if err != nil {
			b.Fatal(err)
		}
		return pmf
	}
	p0 := mkPMF(0)
	p1 := mkPMF(1)
	cost, err := ot.NewCostMatrix(grid, grid, ot.SquaredEuclidean)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("monotone", func(b *testing.B) {
		m0, _ := ot.OnGrid(grid, p0)
		m1, _ := ot.OnGrid(grid, p1)
		for i := 0; i < b.N; i++ {
			if _, err := ot.Monotone(m0, m1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("simplex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ot.Simplex(p0, p1, cost); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sinkhorn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ot.Sinkhorn(p0, p1, cost, ot.SinkhornOptions{Tol: 1e-6}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlanSerialization measures the canonical plan encoder on the
// two plan shapes perfbench serves: monotone n_Q=100 designed from 2 000
// research records (design_fresh, design_repeat) and the dense Sinkhorn
// n_Q=100 plan designed from 500 (repair_csv, repair_blind_ndjson). Cells
// memoize their fragment from their second encode on, so each shape has
// two sub-benches: cold encodes a plan over cells never encoded before
// (the encoder itself; a fresh design), repeat a new *Plan over cells
// already encoded twice (a repeated design whose cells the design cache
// returns, or a GET of a stored plan). Every plan is built outside the
// timer.
func BenchmarkPlanSerialization(b *testing.B) {
	for _, shape := range []struct {
		name     string
		research int
		opts     otfair.DesignOptions
	}{
		{"monotone", 2000, otfair.DesignOptions{NQ: 100}},
		{"sinkhorn", 500, otfair.DesignOptions{NQ: 100, Solver: otfair.SolverSinkhorn}},
	} {
		research, _ := benchSimData(b, shape.research, 0)
		plan, err := otfair.Design(research, shape.opts)
		if err != nil {
			b.Fatal(err)
		}
		var size discardCounter
		if err := newCells(plan).WriteJSON(&size); err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			plan func() *otfair.Plan
		}{
			{"cold", func() *otfair.Plan { return newCells(plan) }},
			{"repeat", func() *otfair.Plan { return newPlan(plan) }},
		} {
			b.Run(shape.name+"/"+mode.name, func(b *testing.B) {
				for range 2 { // the repeat shape's cells are memoized from here on
					if _, err := plan.MarshalCanonical(); err != nil {
						b.Fatal(err)
					}
				}
				plans := make([]*otfair.Plan, b.N)
				for i := range plans {
					plans[i] = mode.plan()
				}
				b.SetBytes(int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				for _, p := range plans {
					var buf discardCounter
					if err := p.WriteJSON(&buf); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// newPlan is a new *Plan over p's cells, as a repeated design builds one
// from the design cache: nothing is memoized on the plan itself.
func newPlan(p *otfair.Plan) *otfair.Plan {
	return &otfair.Plan{Dim: p.Dim, Names: p.Names, Cells: p.Cells, Opts: p.Opts, GroupSizes: p.GroupSizes}
}

// newCells is a new *Plan over new cells holding p's cell data: nothing
// is memoized on the plan or its cells.
func newCells(p *otfair.Plan) *otfair.Plan {
	out := newPlan(p)
	for u := range p.Cells {
		out.Cells[u] = make([]*core.Cell, len(p.Cells[u]))
		for k, c := range p.Cells[u] {
			out.Cells[u][k] = &core.Cell{Q: c.Q, PMF: c.PMF, Bary: c.Bary, Target: c.Target, Plans: c.Plans, H: c.H, Degenerate: c.Degenerate}
		}
	}
	return out
}

// BenchmarkPlanSamplerBuild measures building the alias-slot draw tables
// (core.NewPlanSampler) that every engine bind and labelled repairer pays
// once per plan, on the same two plan shapes as BenchmarkPlanSerialization:
// monotone n_Q=100 from 2 000 research records (1–2 atoms per row) and the
// dense Sinkhorn n_Q=100 plan from 500 (about 70 000 atoms).
func BenchmarkPlanSamplerBuild(b *testing.B) {
	for _, shape := range []struct {
		name     string
		research int
		opts     otfair.DesignOptions
	}{
		{"monotone", 2000, otfair.DesignOptions{NQ: 100}},
		{"sinkhorn", 500, otfair.DesignOptions{NQ: 100, Solver: otfair.SolverSinkhorn}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			research, _ := benchSimData(b, shape.research, 0)
			plan, err := otfair.Design(research, shape.opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := otfair.NewPlanSampler(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// discardCounter is an io.Writer that counts bytes.
type discardCounter int64

func (d *discardCounter) Write(p []byte) (int, error) {
	*d += discardCounter(len(p))
	return len(p), nil
}
