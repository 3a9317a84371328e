package joint

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"otfair/internal/dataset"
	"otfair/internal/ot"
	"otfair/internal/rng"
)

// TestSeparableDesignMatchesDenseOracle pins the Kronecker-factored design
// against the dense oracle (oracle_test.go) on randomized research draws: same
// grids and pmfs by construction, barycenters within 1e-9, and the plans'
// row conditionals — the multinomials Algorithm 2 actually samples — in
// close agreement. The plan-level tolerance is looser than the ot-level
// differential (1e-9 there, with both solvers driven to the fixpoint)
// because each design-path solver stops at its own default tolerance.
func TestSeparableDesignMatchesDenseOracle(t *testing.T) {
	for _, seed := range []uint64{31, 32} {
		research, _ := paperTables(t, seed, 500, 0)
		sep, err := Design(research, Options{NQ: 9})
		if err != nil {
			t.Fatal(err)
		}
		den, err := designDense(research, Options{NQ: 9})
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 2; u++ {
			cs, cd := sep.Cells[u], den.Cells[u]
			if cs.States() != cd.States() {
				t.Fatalf("seed %d u=%d: states %d vs %d", seed, u, cs.States(), cd.States())
			}
			n := cs.States()
			for s := 0; s < 2; s++ {
				for j := range cs.PMF[s] {
					if cs.PMF[s][j] != cd.PMF[s][j] {
						t.Fatalf("seed %d u=%d s=%d: pmfs diverge at %d", seed, u, s, j)
					}
				}
			}
			for j := range cs.Bary {
				if d := math.Abs(cs.Bary[j] - cd.Bary[j]); d > 1e-9 {
					t.Fatalf("seed %d u=%d: barycenter[%d] differs by %v", seed, u, j, d)
				}
			}
			if _, ok := cs.Plans[0].(*ot.FactoredPlan); !ok {
				t.Fatalf("seed %d u=%d: separable design produced %T", seed, u, cs.Plans[0])
			}
			if _, ok := cd.Plans[0].(*ot.Plan); !ok {
				t.Fatalf("seed %d u=%d: dense design produced %T", seed, u, cd.Plans[0])
			}
			for s := 0; s < 2; s++ {
				for i := 0; i < n; i++ {
					if d := math.Abs(cs.Plans[s].RowMass(i) - cd.Plans[s].RowMass(i)); d > 1e-8 {
						t.Fatalf("seed %d u=%d s=%d: row mass %d differs by %v", seed, u, s, i, d)
					}
					gs := expandConditional(cs.Plans[s], i, n)
					gd := expandConditional(cd.Plans[s], i, n)
					if (gs == nil) != (gd == nil) {
						t.Fatalf("seed %d u=%d s=%d: row %d mass disagreement", seed, u, s, i)
					}
					for j := range gs {
						if d := math.Abs(gs[j] - gd[j]); d > 1e-6 {
							t.Fatalf("seed %d u=%d s=%d: conditional (%d,%d) differs by %v",
								seed, u, s, i, j, d)
						}
					}
				}
			}
		}
	}
}

func expandConditional(p ot.RowPlan, i, m int) []float64 {
	targets, probs, ok := p.AppendRowConditional(nil, nil, i)
	if !ok {
		return nil
	}
	out := make([]float64, m)
	for k, j := range targets {
		out[j] = probs[k]
	}
	return out
}

// TestSeparableRepairDistributionMatchesDense runs both designs' repairers
// over the same archive and checks the repaired populations agree in
// distribution (per-coordinate group means): the two plans are the same
// transport up to solver tolerance, so the sampled repairs must land on the
// same law even though individual draws differ.
func TestSeparableRepairDistributionMatchesDense(t *testing.T) {
	research, archive := paperTables(t, 33, 600, 4000)
	sep, err := Design(research, Options{NQ: 12})
	if err != nil {
		t.Fatal(err)
	}
	den, err := designDense(research, Options{NQ: 12})
	if err != nil {
		t.Fatal(err)
	}
	repair := func(p *Plan) *dataset.Table {
		rp, err := NewRepairer(p, rng.New(77))
		if err != nil {
			t.Fatal(err)
		}
		out, err := rp.RepairTable(archive)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := repair(sep), repair(den)
	for u := 0; u < 2; u++ {
		for s := 0; s < 2; s++ {
			g := dataset.Group{U: u, S: s}
			for k := 0; k < 2; k++ {
				ma := meanOf(a.GroupColumn(g, k))
				mb := meanOf(b.GroupColumn(g, k))
				if math.Abs(ma-mb) > 0.05 {
					t.Errorf("(u=%d,s=%d,k=%d): separable mean %v vs dense %v", u, s, k, ma, mb)
				}
			}
		}
	}
}

func meanOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestDesignRejectsNaNOptions covers the comparison hole the range checks
// used to have: NaN compares false against every bound, so it needs an
// explicit rejection.
func TestDesignRejectsNaNOptions(t *testing.T) {
	research, _ := paperTables(t, 34, 200, 0)
	if _, err := Design(research, Options{T: math.NaN()}); err == nil {
		t.Error("NaN T accepted")
	}
	if _, err := Design(research, Options{Epsilon: math.NaN()}); err == nil {
		t.Error("NaN epsilon accepted")
	}
	if _, err := Design(research, Options{Epsilon: math.Inf(1)}); err == nil {
		t.Error("+Inf epsilon accepted")
	}
}

// TestDenseOracleCap: the dense oracle is capped at denseMaxStates no
// matter what MaxStates allows — beyond it the n² objects it materializes
// stop fitting in memory.
func TestDenseOracleCap(t *testing.T) {
	research, _ := paperTables(t, 35, 300, 0)
	if _, err := designDense(research, Options{NQ: 100, MaxStates: 65536}); err == nil {
		t.Error("dense design above denseMaxStates accepted")
	}
	// The separable path handles the same size fine.
	if _, err := Design(research, Options{NQ: 100, MaxStates: 65536}); err != nil {
		t.Errorf("separable design at 10000 states failed: %v", err)
	}
}

// TestDenseSerializationRoundTrip keeps the entry-list serialization path
// exercised now that designs write scaling form: a dense-oracle plan must
// round-trip as entry lists, and the same document in the version-1 layout
// with the "dense" option set (as dense designs once wrote it) must still
// load and repair identically.
func TestDenseSerializationRoundTrip(t *testing.T) {
	research, archive := paperTables(t, 36, 300, 100)
	plan, err := designDense(research, Options{NQ: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	v1 := strings.Replace(strings.Replace(doc, `"version":2`, `"version":1`, 1), `"options":{`, `"options":{"dense":true,`, 1)
	if v1 == doc || !strings.Contains(v1, `"dense":true`) {
		t.Fatalf("could not rewrite the document into the version-1 layout: %.120s", doc)
	}
	a, err := NewRepairer(plan, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	outA, err := a.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	for name, text := range map[string]string{"v2": doc, "v1 dense": v1} {
		got, err := ReadPlan(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := got.Cells[0].Plans[0].(*ot.Plan); !ok {
			t.Fatalf("%s: dense plan round-tripped as %T", name, got.Cells[0].Plans[0])
		}
		b, err := NewRepairer(got, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		outB, err := b.RepairTable(archive)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < outA.Len(); i++ {
			if outA.At(i).X[0] != outB.At(i).X[0] || outA.At(i).X[1] != outB.At(i).X[1] {
				t.Fatalf("%s: record %d differs after dense round-trip", name, i)
			}
		}
	}
}
