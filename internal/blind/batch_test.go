package blind

import (
	"math"
	"testing"

	"otfair/internal/dataset"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// TestBatchPosteriorMatchesScalar is the differential pin of the batched
// fast path: on simulated archives (drawn from the paper's scenario, plus
// shifted ones so the posterior sweeps its whole range) the batch output
// must match QDA.Posterior within 1e-12 on every record. The
// implementation keeps the scalar operand order, so the agreement is in
// fact bit-exact — asserted too, because the serving engines' byte-identity
// contracts depend on it.
func TestBatchPosteriorMatchesScalar(t *testing.T) {
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	research, archive, err := sampler.ResearchArchive(rng.New(3), 400, 5000)
	if err != nil {
		t.Fatal(err)
	}
	qda, err := NewQDA(research)
	if err != nil {
		t.Fatal(err)
	}
	recs := archive.DropS().Records()
	// Push some records far from every component so underflow and extreme
	// log-likelihood gaps are exercised, not just the data bulk.
	r := rng.New(8)
	for i := range recs {
		if i%97 == 0 {
			shift := make([]float64, len(recs[i].X))
			for k, v := range recs[i].X {
				shift[k] = v + 1e4*r.Norm()
			}
			recs[i].X = shift
		}
	}

	bp := qda.Batch()
	got := make([]float64, len(recs))
	if err := bp.Posteriors(recs, got); err != nil {
		t.Fatal(err)
	}
	maxDiff := 0.0
	for i, rec := range recs {
		want, err := qda.Posterior(rec)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(got[i] - want); d > maxDiff {
			maxDiff = d
		}
		if got[i] != want {
			t.Errorf("record %d: batch %v != scalar %v (bit-exactness broken)", i, got[i], want)
		}
	}
	if maxDiff > 1e-12 {
		t.Errorf("max |batch - scalar| = %g, want <= 1e-12", maxDiff)
	}

	// A second pass over the same evaluator must reuse scratch cleanly.
	again := make([]float64, len(recs))
	if err := bp.Posteriors(recs, again); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("record %d: scratch reuse changed the result", i)
		}
	}
}

// TestBatchPosteriorValidation mirrors the scalar error contract and the
// length check.
func TestBatchPosteriorValidation(t *testing.T) {
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	research, _, err := sampler.ResearchArchive(rng.New(4), 300, 10)
	if err != nil {
		t.Fatal(err)
	}
	qda, err := NewQDA(research)
	if err != nil {
		t.Fatal(err)
	}
	bp := qda.Batch()
	good := research.At(0)
	if err := bp.Posteriors([]dataset.Record{good}, make([]float64, 2)); err == nil {
		t.Error("length mismatch accepted")
	}
	bad := good
	bad.U = 2
	if err := bp.Posteriors([]dataset.Record{good, bad}, make([]float64, 2)); err == nil {
		t.Error("invalid u label accepted")
	}
	short := good
	short.X = short.X[:1]
	if err := bp.Posteriors([]dataset.Record{short}, make([]float64, 1)); err == nil {
		t.Error("wrong dimension accepted")
	}
}
