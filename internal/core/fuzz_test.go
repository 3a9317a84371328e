package core

import (
	"bytes"
	"math"
	"testing"

	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// FuzzRepairValue feeds RepairValue arbitrary float64 bits, labels and
// feature index, with and without kernel dither and jitter, on a paper
// plan. It must never panic: a NaN value or a bad label or feature fails
// with an error, and any other value repairs to a finite value inside its
// cell's support (±Inf and out-of-range values clamp to the grid ends).
// Seeds cover NaN, ±Inf, ±0, a subnormal and both grid endpoints.
func FuzzRepairValue(f *testing.F) {
	smp, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		f.Fatal(err)
	}
	research, _, err := smp.ResearchArchive(rng.New(5), 300, 0)
	if err != nil {
		f.Fatal(err)
	}
	plan, err := Design(research, Options{NQ: 20})
	if err != nil {
		f.Fatal(err)
	}
	sampler, err := NewPlanSampler(plan)
	if err != nil {
		f.Fatal(err)
	}
	q := plan.Cell(0, 0).Q
	for _, x := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, q[0], q[len(q)-1],
	} {
		f.Add(0, 0, 0, math.Float64bits(x), false)
		f.Add(1, 1, 1, math.Float64bits(x), true)
	}
	f.Fuzz(func(t *testing.T, u, s, k int, bits uint64, smooth bool) {
		rp, err := NewRepairerShared(sampler, rng.New(bits), RepairOptions{Jitter: smooth, KernelDither: smooth})
		if err != nil {
			t.Fatal(err)
		}
		x := math.Float64frombits(bits)
		v, err := rp.RepairValue(u, s, k, x)
		valid := (u == 0 || u == 1) && (s == 0 || s == 1) && k >= 0 && k < plan.Dim && !math.IsNaN(x)
		if !valid {
			if err == nil {
				t.Fatalf("RepairValue(%d, %d, %d, %v) = %v, want an error", u, s, k, x, v)
			}
			return
		}
		if err != nil {
			t.Fatalf("RepairValue(%d, %d, %d, %v): %v", u, s, k, x, err)
		}
		grid := plan.Cell(u, k).Q
		if !(v >= grid[0] && v <= grid[len(grid)-1]) {
			t.Fatalf("RepairValue(%d, %d, %d, %v) = %v, outside the support [%v, %v]", u, s, k, x, v, grid[0], grid[len(grid)-1])
		}
	})
}

// FuzzReadPlan feeds arbitrary bytes to ReadPlan, the decoder behind
// PUT /v1/plans and the plan store. It must never panic and never accept a
// non-finite value, and any plan it accepts must write back to canonical
// bytes that encoding/json's reflection encoder agrees with and that read
// again to the same plan: same bytes, same fingerprint.
// Seeds under testdata/fuzz/FuzzReadPlan cover truncated JSON, a NaN grid,
// a negative mass, duplicate cells and an empty document.
func FuzzReadPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := ReadPlan(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkPlanFinite(t, plan)
		canon, err := plan.MarshalCanonical()
		if err != nil {
			t.Fatalf("accepted plan does not serialize: %v", err)
		}
		checkMatchesReflection(t, "decoded plan", plan)
		back, err := ReadPlan(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical bytes rejected: %v\n%s", err, canon)
		}
		again, err := back.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, again) {
			t.Fatalf("canonical bytes not stable:\n%s\n%s", canon, again)
		}
		want, _ := plan.Fingerprint()
		if got, _ := back.Fingerprint(); got != want {
			t.Fatalf("fingerprint %s after round trip, want %s", got, want)
		}
	})
}

// checkPlanFinite fails the test on any NaN or ±Inf a decoded plan holds.
func checkPlanFinite(t *testing.T, p *Plan) {
	t.Helper()
	finite := func(what string, xs ...float64) {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("accepted plan holds %s[%d] = %v", what, i, x)
			}
		}
	}
	finite("options", p.Opts.T, p.Opts.Amount, p.Opts.SinkhornEpsilon)
	for u := range p.Cells {
		for _, c := range p.Cells[u] {
			finite("q", c.Q...)
			finite("bary", c.Bary...)
			finite("h", c.H[:]...)
			for s := 0; s < 2; s++ {
				finite("pmf", c.PMF[s]...)
				finite("target", c.Target[s]...)
				for _, e := range c.Plans[s].Entries() {
					finite("plan mass", e.Mass)
				}
			}
		}
	}
}
