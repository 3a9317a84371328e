package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"
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
// the oracle agree on p: the same bytes, or the same error text. Each is
// run three times, so a cell is encoded fresh, then stores its fragment,
// then is written from the stored copy (unless an earlier plan sharing it
// got that far already).
func checkMatchesReflection(t *testing.T, what string, p *Plan) {
	t.Helper()
	for range 3 {
		checkMatchesReflectionOnce(t, what, p)
	}
}

func checkMatchesReflectionOnce(t *testing.T, what string, p *Plan) {
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
	h := ot.HashBytes(raw)
	if want := fmt.Sprintf("%016x%016x", h[0], h[1]); FingerprintBytes(raw) != want {
		t.Fatalf("FingerprintBytes = %s, want the hash words in hex %s", FingerprintBytes(raw), want)
	}
}

// newCells is p over new *Cell values holding the same data: cells the
// encoder has never seen, whatever earlier tests did with the design
// cache's shared cells.
func newCells(p *Plan) *Plan {
	out := relabelled(p, p.Names, p.GroupSizes)
	for u := range p.Cells {
		out.Cells[u] = make([]*Cell, len(p.Cells[u]))
		for k, c := range p.Cells[u] {
			out.Cells[u][k] = &Cell{Q: c.Q, PMF: c.PMF, Bary: c.Bary, Target: c.Target, Plans: c.Plans, H: c.H, Degenerate: c.Degenerate}
		}
	}
	return out
}

// TestCellFragmentMemo pins the second-encode rule: a cell's first encode
// stores nothing, its second stores its fragment, later ones append that
// copy; a plan sharing the cells under other names and group sizes, or
// one failing on a poisoned header, encodes as encoding/json does
// throughout. (TestCanonicalMatchesReflectionEncoder's relabelled plans
// share memoized cells too.)
func TestCellFragmentMemo(t *testing.T) {
	research, _ := paperData(t, 35, 200, 0)
	designed, err := Design(research, Options{NQ: 12, Solver: SolverSinkhorn})
	if err != nil {
		t.Fatal(err)
	}
	p := newCells(designed)
	want, err := reflectionEncode(p)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		got, err := p.MarshalCanonical()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("encode %d: %d bytes, %v; want the oracle's %d", round, len(got), err, len(want))
		}
		for u := range p.Cells {
			for k, c := range p.Cells[u] {
				frag := c.frag.Load()
				if !c.encoded.Load() || (frag != nil) != (round > 1) {
					t.Fatalf("after encode %d: cell (%d, %d) encoded=%v, fragment stored=%v", round, u, k, c.encoded.Load(), frag != nil)
				}
				if frag != nil && !bytes.Contains(want, *frag) {
					t.Fatalf("cell (%d, %d) stored a fragment that is not in the plan's bytes", u, k)
				}
			}
		}
	}
	sizes := map[dataset.Group]int{{U: 0, S: 0}: 1, {U: 0, S: 1}: 22, {U: 1, S: 0}: 333, {U: 1, S: 1}: 4444}
	checkMatchesReflection(t, "renamed", relabelled(p, []string{"first", "second"}, sizes))

	// A poisoned header fails the plan, and the cells still store their
	// (correct) fragments for the next plan over them.
	fresh := newCells(designed)
	bad := relabelled(fresh, fresh.Names, fresh.GroupSizes)
	bad.Opts.T = math.NaN()
	for range 3 {
		checkMatchesReflectionOnce(t, "NaN t", bad)
	}
	if fresh.Cell(0, 0).frag.Load() == nil {
		t.Fatal("cells of a plan failing on its header stored no fragment")
	}
	checkMatchesReflection(t, "after a failed header", fresh)
}

// TestNonFiniteCellNeverMemoizes: a cell holding a NaN fails every encode
// with the same error and stores nothing, neither flag nor fragment.
func TestNonFiniteCellNeverMemoizes(t *testing.T) {
	research, _ := paperData(t, 33, 200, 0)
	p, err := Design(research, Options{NQ: 12})
	if err != nil {
		t.Fatal(err)
	}
	bad := poisonedPlans(t, p, math.NaN())["pmf"]
	c := bad.Cell(0, 0)
	for round := 1; round <= 3; round++ {
		if _, err := bad.MarshalCanonical(); err == nil || err.Error() != "json: unsupported value: NaN" {
			t.Fatalf("encode %d: error %v, want json: unsupported value: NaN", round, err)
		}
		if c.encoded.Load() || c.frag.Load() != nil {
			t.Fatalf("encode %d memoized a cell holding NaN", round)
		}
	}
}

// TestConcurrentEncodesShareCells runs WriteJSON and MarshalCanonical on
// one plan over never-encoded cells from several goroutines at once (run
// it under -race): racing first and second encodes may both store a
// fragment, and every encode still matches the oracle.
func TestConcurrentEncodesShareCells(t *testing.T) {
	research, _ := paperData(t, 36, 200, 0)
	designed, err := Design(research, Options{NQ: 16})
	if err != nil {
		t.Fatal(err)
	}
	p := newCells(designed)
	want, err := reflectionEncode(p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 4 {
				got, err := p.MarshalCanonical()
				if g%2 == 0 {
					var buf bytes.Buffer
					err = p.WriteJSON(&buf)
					got = buf.Bytes()
				}
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("goroutine %d: encode differs from the oracle", g)
					return
				}
			}
		}()
	}
	wg.Wait()
	if id, _ := p.Fingerprint(); id != FingerprintBytes(want) {
		t.Fatalf("fingerprint %s, want %s", id, FingerprintBytes(want))
	}
}

// TestRepeatFingerprintAllocs pins what a repeated design pays to
// fingerprint a new plan over memoized cells: the id text and the pointer
// the plan records it through — the encoding goes through a pooled
// buffer, and there is nothing per cell and nothing for the header.
func TestRepeatFingerprintAllocs(t *testing.T) {
	research, _ := paperData(t, 37, 200, 0)
	p, err := Design(research, Options{NQ: 12})
	if err != nil {
		t.Fatal(err)
	}
	want, err := reflectionEncode(p)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := p.MarshalCanonical(); err != nil {
			t.Fatal(err)
		}
	}
	// Under -race, sync.Pool drops a quarter of its Puts, and the encode
	// after a drop allocates the buffer again (two allocations). Over 200
	// runs that averages half an allocation, which AllocsPerRun's integer
	// mean rounds away, so the pin is exact with and without -race.
	const runs = 200
	plans := make([]*Plan, runs+1) // AllocsPerRun calls once more to warm up
	for i := range plans {
		plans[i] = relabelled(p, p.Names, p.GroupSizes)
	}
	wantID, next := FingerprintBytes(want), 0
	allocs := testing.AllocsPerRun(runs, func() {
		id, err := plans[next].Fingerprint()
		next++
		if err != nil || id != wantID {
			t.Fatalf("Fingerprint = %s, %v, want %s", id, err, wantID)
		}
	})
	if allocs != 2 {
		t.Fatalf("repeat Fingerprint allocates %v times, want 2 (id, its record)", allocs)
	}
}
