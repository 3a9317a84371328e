package core

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"otfair/internal/dataset"
	"otfair/internal/kde"
	"otfair/internal/ot"
	"otfair/internal/rng"
)

// reflectionEncode is the oracle for the canonical encoder: the plan's
// planJSON built field by field and written by json.Encoder, which sorts
// the group-size keys.
func reflectionEncode(p *Plan) ([]byte, error) {
	out := planJSON{
		Version: planVersion,
		Dim:     p.Dim,
		Names:   p.Names,
		Opts: optionsJSON{
			NQ:              p.Opts.NQ,
			T:               p.Opts.T,
			Amount:          p.Opts.Amount,
			Kernel:          p.Opts.Kernel.String(),
			Bandwidth:       p.Opts.Bandwidth.String(),
			Solver:          p.Opts.Solver.String(),
			Target:          p.Opts.Target.String(),
			Barycenter:      p.Opts.Barycenter.String(),
			SinkhornEpsilon: p.Opts.SinkhornEpsilon,
		},
		GroupSizes: make(map[string]int, len(p.GroupSizes)),
	}
	//otfair:nondet-ok map-to-map copy; encoding/json marshals map keys sorted
	for g, n := range p.GroupSizes {
		out.GroupSizes[groupKey(g)] = n
	}
	for u := 0; u < 2; u++ {
		out.Cells[u] = make([]cellJSON, len(p.Cells[u]))
		for k, cell := range p.Cells[u] {
			cj := cellJSON{
				Q:          cell.Q,
				PMF:        cell.PMF,
				Bary:       cell.Bary,
				Target:     cell.Target,
				H:          cell.H,
				Degenerate: cell.Degenerate,
			}
			for s := 0; s < 2; s++ {
				cj.Plans[s] = cell.Plans[s].Entries()
			}
			out.Cells[u][k] = cj
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkMatchesReflection fails unless MarshalCanonical, WriteJSON and
// the oracle agree on p: the same bytes, or the same error text.
func checkMatchesReflection(t *testing.T, what string, p *Plan) {
	t.Helper()
	want, werr := reflectionEncode(p)
	got, gerr := p.MarshalCanonical()
	var buf bytes.Buffer
	wrerr := p.WriteJSON(&buf)
	if werr != nil {
		if gerr == nil || gerr.Error() != werr.Error() || wrerr == nil || wrerr.Error() != werr.Error() {
			t.Fatalf("%s: errors %v / %v, want %v", what, gerr, wrerr, werr)
		}
		if buf.Len() != 0 {
			t.Fatalf("%s: WriteJSON wrote %d bytes before failing", what, buf.Len())
		}
		return
	}
	if gerr != nil || wrerr != nil {
		t.Fatalf("%s: errors %v / %v, want none", what, gerr, wrerr)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: canonical bytes differ from encoding/json at byte %d of %d/%d:\ngot  …%q\nwant …%q",
			what, i, len(got), len(want), got[max(0, i-40):min(len(got), i+40)], want[max(0, i-40):min(len(want), i+40)])
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s: WriteJSON differs from encoding/json", what)
	}
}

// relabelled is p's content under other names and group sizes: a new Plan
// sharing p's cells, since a returned plan is never modified.
func relabelled(p *Plan, names []string, sizes map[dataset.Group]int) *Plan {
	return &Plan{Dim: p.Dim, Names: names, Cells: p.Cells, Opts: p.Opts, GroupSizes: sizes}
}

func TestCanonicalMatchesReflectionEncoder(t *testing.T) {
	research, _ := paperData(t, 31, 300, 0)
	designs := []struct {
		name string
		opts Options
	}{
		{"monotone", Options{NQ: 25}},
		{"simplex", Options{NQ: 12, Solver: SolverSimplex}},
		{"sinkhorn", Options{NQ: 25, Solver: SolverSinkhorn}},
		{"sinkhorn-epsilon", Options{NQ: 25, Solver: SolverSinkhorn, SinkhornEpsilon: 0.05}},
		{"partial", Options{NQ: 25, T: 0.3, Amount: 0.4}},
		{"bregman", Options{NQ: 20, Barycenter: BarycenterBregman}},
		{"mixture-epanechnikov-scott", Options{NQ: 20, Target: TargetMixture, Kernel: kde.Epanechnikov, Bandwidth: kde.Scott}},
		{"gaussian-target", Options{NQ: 20, Target: TargetGaussian}},
	}
	var plans []*Plan
	for _, d := range designs {
		p, err := Design(research, d.opts)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		checkMatchesReflection(t, d.name, p)
		plans = append(plans, p)
	}

	constant := dataset.MustTable(2, []string{"x", "c"})
	r := rng.New(32)
	for i := 0; i < 200; i++ {
		constant.Append(dataset.Record{X: []float64{r.Norm(), 42}, S: (i / 2) % 2, U: i % 2})
	}
	degenerate, err := Design(constant, Options{NQ: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !degenerate.Cell(0, 1).Degenerate {
		t.Fatal("constant feature not flagged degenerate")
	}
	checkMatchesReflection(t, "degenerate", degenerate)

	base := plans[0]
	// Nil and empty slices inside a cell: encoding/json writes null for
	// the first and [] for the second, atoms included (ot.NewPlan keeps
	// a nil atom list nil and drops a zero-mass atom from a non-nil one).
	noAtoms, err := ot.NewPlan(3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	emptyAtoms, err := ot.NewPlan(3, 3, []ot.Entry{{I: 1, J: 1}})
	if err != nil {
		t.Fatal(err)
	}
	hollow := withCell(base, &Cell{
		Q: []float64{}, PMF: [2][]float64{nil, {}}, Target: [2][]float64{{}, nil},
		Plans: [2]*ot.Plan{noAtoms, emptyAtoms}, H: [2]float64{0, math.Copysign(0, -1)},
	})
	checkMatchesReflection(t, "nil and empty slices", hollow)

	missing := map[dataset.Group]int{{U: 0, S: 0}: 70, {U: 1, S: 0}: 80, {U: 1, S: 1}: 90}
	for name, p := range map[string]*Plan{
		"nil names":          relabelled(base, nil, base.GroupSizes),
		"empty names":        relabelled(base, []string{}, base.GroupSizes),
		"escaped names":      relabelled(base, []string{`<a&b>`, "q\"uote\\back\u2028sep\u2029\x00\t", "bad\xffutf8\xc3"}, base.GroupSizes),
		"missing group":      relabelled(base, base.Names, missing),
		"nil group sizes":    relabelled(base, base.Names, nil),
		"odd group":          relabelled(base, base.Names, map[dataset.Group]int{{U: 1, S: 11}: 3, {U: 11, S: 1}: 4, {U: -1, S: 0}: 5}),
		"degenerate escaped": relabelled(degenerate, []string{"<&>", ""}, degenerate.GroupSizes),
	} {
		checkMatchesReflection(t, name, p)
	}
}

// withCell is p with cell (0, 0) replaced: a new Plan, so designed (and
// cached) cells are never written.
func withCell(p *Plan, c *Cell) *Plan {
	cells := [2][]*Cell{slices.Clone(p.Cells[0]), p.Cells[1]}
	cells[0][0] = c
	return &Plan{Dim: p.Dim, Names: p.Names, Cells: cells, Opts: p.Opts, GroupSizes: p.GroupSizes}
}

// poisonedPlans returns p with one float field set to v, for every float
// field a plan serializes.
func poisonedPlans(t *testing.T, p *Plan, v float64) map[string]*Plan {
	t.Helper()
	c := p.Cell(0, 0)
	clone := func() *Cell {
		return &Cell{
			Q: slices.Clone(c.Q), Bary: slices.Clone(c.Bary), H: c.H, Plans: c.Plans,
			PMF:    [2][]float64{slices.Clone(c.PMF[0]), slices.Clone(c.PMF[1])},
			Target: [2][]float64{slices.Clone(c.Target[0]), slices.Clone(c.Target[1])},
		}
	}
	out := make(map[string]*Plan)
	for _, field := range []string{"t", "amount", "sinkhorn_epsilon"} {
		q := relabelled(p, p.Names, p.GroupSizes)
		switch field {
		case "t":
			q.Opts.T = v
		case "amount":
			q.Opts.Amount = v
		case "sinkhorn_epsilon":
			q.Opts.SinkhornEpsilon = v
		}
		out[field] = q
	}
	cq := clone()
	cq.Q[3] = v
	out["q"] = withCell(p, cq)
	cp := clone()
	cp.PMF[1][2] = v
	out["pmf"] = withCell(p, cp)
	cb := clone()
	cb.Bary[0] = v
	out["bary"] = withCell(p, cb)
	ct := clone()
	ct.Target[0][len(ct.Target[0])-1] = v
	out["target"] = withCell(p, ct)
	ch := clone()
	ch.H[1] = v
	out["h"] = withCell(p, ch)
	if v > 0 { // ot.NewPlan rejects a NaN or negative mass itself
		n, _ := c.Plans[0].Dims()
		entries := slices.Clone(c.Plans[0].Entries())
		entries[len(entries)/2].Mass = v
		bad, err := ot.NewPlan(n, n, entries)
		if err != nil {
			t.Fatal(err)
		}
		cm := clone()
		cm.Plans[0] = bad
		out["mass"] = withCell(p, cm)
	}
	return out
}

// TestNonFiniteValuesFailEncoding pins encoding/json's refusal of NaN and
// ±Inf: every float field of a plan, poisoned, fails MarshalCanonical,
// WriteJSON and Fingerprint with "json: unsupported value: …" and
// writes nothing.
func TestNonFiniteValuesFailEncoding(t *testing.T) {
	research, _ := paperData(t, 33, 200, 0)
	p, err := Design(research, Options{NQ: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{math.NaN(), "json: unsupported value: NaN"},
		{math.Inf(1), "json: unsupported value: +Inf"},
		{math.Inf(-1), "json: unsupported value: -Inf"},
	} {
		v, want := tc.v, tc.want
		for field, bad := range poisonedPlans(t, p, v) {
			checkMatchesReflection(t, field, bad)
			if _, err := bad.MarshalCanonical(); err == nil || err.Error() != want {
				t.Fatalf("%s = %v: MarshalCanonical error %v, want %q", field, v, err, want)
			}
			if id, err := bad.Fingerprint(); err == nil || err.Error() != want || id != "" {
				t.Fatalf("%s = %v: Fingerprint %q, %v, want %q", field, v, id, err, want)
			}
		}
	}
}

// TestFingerprintMemo checks that MarshalCanonical records the
// fingerprint of the bytes it returned, that Fingerprint then allocates
// nothing, and that a plan fingerprinted first (no MarshalCanonical)
// agrees with the hash of its canonical bytes.
func TestFingerprintMemo(t *testing.T) {
	research, _ := paperData(t, 34, 200, 0)
	p, err := Design(research, Options{NQ: 12})
	if err != nil {
		t.Fatal(err)
	}
	fresh := relabelled(p, p.Names, p.GroupSizes)
	id, err := fresh.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := p.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if want := FingerprintBytes(raw); id != want {
		t.Fatalf("Fingerprint %s, hash of canonical bytes %s", id, want)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if got, _ := p.Fingerprint(); got != id {
			t.Fatalf("memoized fingerprint %s, want %s", got, id)
		}
	}); allocs != 0 {
		t.Fatalf("Fingerprint after MarshalCanonical allocates %v times", allocs)
	}
	renamed := relabelled(p, []string{"a", "b"}, p.GroupSizes)
	if other, _ := renamed.Fingerprint(); other == id {
		t.Fatalf("renamed plan shares fingerprint %s", id)
	}
}
