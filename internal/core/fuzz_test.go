package core

import (
	"bytes"
	"math"
	"testing"
)

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
