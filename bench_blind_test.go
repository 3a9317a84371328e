package otfair_test

// Throughput benchmarks for the blind serving layer: posterior-mixed
// repair of s-unlabelled archives through the calibrated batch engine, in
// the same records/sec terms as the labelled serving benches so
// BENCH_*.json tracks both serving modes side by side. The blind path adds
// one QDA posterior evaluation (a d-dimensional forward substitution) per
// record on top of the labelled path's draws, plus the label Bernoulli for
// the draw method.

import (
	"testing"

	"otfair"
)

func benchBlindRepair(b *testing.B, method otfair.BlindMethod, opts otfair.BatchOptions) {
	research, archive := benchSimData(b, 500, 20000)
	plan, err := otfair.Design(research, otfair.DesignOptions{NQ: 100, Solver: otfair.SolverSinkhorn})
	if err != nil {
		b.Fatal(err)
	}
	cal, err := otfair.NewCalibration(plan, research)
	if err != nil {
		b.Fatal(err)
	}
	labelled, err := otfair.NewBatchRepairer(plan, opts)
	if err != nil {
		b.Fatal(err)
	}
	engine, err := labelled.WithCalibration(cal)
	if err != nil {
		b.Fatal(err)
	}
	unlabelled := archive.DropS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := engine.RepairTable(otfair.NewRNG(uint64(i)+1), method, unlabelled); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(unlabelled.Len())*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
}

// BenchmarkBlindRepairThroughputDraw is the blind serving configuration:
// posterior-mixed draws, parallel shards.
func BenchmarkBlindRepairThroughputDraw(b *testing.B) {
	benchBlindRepair(b, otfair.BlindDraw, otfair.BatchOptions{})
}

// BenchmarkBlindRepairThroughputDrawSerial isolates the per-record blind
// cost (posterior + label draw + repair draws) from the shard fan-out.
func BenchmarkBlindRepairThroughputDrawSerial(b *testing.B) {
	benchBlindRepair(b, otfair.BlindDraw, otfair.BatchOptions{Workers: 1})
}

// BenchmarkBlindRepairThroughputPooledSerial measures the group-blind
// pooled transport, which needs no posterior at all — the per-record cost
// floor of the blind path.
func BenchmarkBlindRepairThroughputPooledSerial(b *testing.B) {
	benchBlindRepair(b, otfair.BlindPooled, otfair.BatchOptions{Workers: 1})
}

// BenchmarkBlindPosteriorBatch isolates the batched QDA posterior — the
// vec-backed chunk evaluation (one blocked forward substitution per class,
// row-wise softmax) that closed the blind/labelled serving gap. Compare
// records/sec here against the engine benches above to see what fraction
// of the blind draw path the posterior still costs.
func BenchmarkBlindPosteriorBatch(b *testing.B) {
	research, archive := benchSimData(b, 500, 20000)
	qda, err := otfair.NewQDA(research)
	if err != nil {
		b.Fatal(err)
	}
	bp := qda.Batch()
	recs := archive.DropS().Records()
	dst := make([]float64, len(recs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bp.Posteriors(recs, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
}
