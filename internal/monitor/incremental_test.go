package monitor

import (
	"math"
	"testing"

	"otfair/internal/dataset"
	"otfair/internal/kde"
	"otfair/internal/rng"
)

// binByEdges histograms a sample into the right-closed bins bounded by
// edges (last bin unbounded) and normalizes to a pmf: the PSI binning the
// counted window's check must reproduce.
func binByEdges(sample, edges []float64) []float64 {
	counts := make([]float64, len(edges)+1)
	for _, x := range sample {
		b := 0
		for b < len(edges) && x > edges[b] {
			b++
		}
		counts[b]++
	}
	for i := range counts {
		counts[i] /= float64(len(sample))
	}
	return counts
}

// referenceMonitor replays Observe with every window kept as raw values
// and each check re-deriving its statistics from the values themselves —
// KSAgainstPMF over a sorted copy and binByEdges over the PSI edges — the
// way the monitor did before windows became grid-cell counts.
type referenceMonitor struct {
	m       *Monitor
	windows map[int][]float64
}

func (r *referenceMonitor) observe(t *testing.T, rec dataset.Record) []Alarm {
	m := r.m
	m.seen++
	var alarms []Alarm
	for k, x := range rec.X {
		key := m.cellIndex(rec.U, rec.S, k)
		cell := m.plan.Cell(rec.U, k)
		cs := m.cells[key]
		if cs == nil {
			cs = &cellState{ring: make([]int32, m.opts.Window)}
			m.cells[key] = cs
			r.windows[key] = make([]float64, m.opts.Window)
		}
		if m.rng != nil {
			if h := cell.H[rec.S]; h > 0 && !cell.Degenerate {
				x += h * kde.Sample(m.plan.Opts.Kernel, m.rng)
			}
		}
		r.windows[key][cs.next] = x
		cs.next = (cs.next + 1) % len(cs.ring)
		if cs.n < len(cs.ring) {
			cs.n++
		}
		cs.sinceChk++
		if cs.cooldown > 0 {
			cs.cooldown--
			continue
		}
		if cs.n < len(cs.ring) || cs.sinceChk < m.opts.CheckEvery || cell.Degenerate {
			continue
		}
		cs.sinceChk = 0
		window := r.windows[key][:cs.n]
		ks, err := KSAgainstPMF(window, cell.Q, cell.PMF[rec.S])
		if err != nil {
			t.Fatal(err)
		}
		ref := m.ref(rec.U, rec.S, k, cell)
		edges := make([]float64, len(ref.edges))
		for b, e := range ref.edges {
			edges[b] = cell.Q[e]
		}
		a, err := m.judge(rec.U, rec.S, k, cs, ks, binByEdges(window, edges), ref)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) > 0 {
			cs.cooldown = m.opts.Cooldown
			m.fired += int64(len(a))
			alarms = append(alarms, a...)
		}
	}
	return alarms
}

// TestCountedWindowMatchesSortedReference runs the monitor and the
// sorted-window reference side by side over random streams that drift in
// and out of the design population and land values exactly on grid
// points, outside the grid and on non-finite values: alarms must be
// identical and every cell's ksRatio/psiRatio bit-identical after every
// record, with and without dithering.
func TestCountedWindowMatchesSortedReference(t *testing.T) {
	plan, sampler := designPaperPlan(t, 11, 800)
	for _, opts := range []Options{
		{},
		{Window: 32},
		{Window: 16, CheckEvery: 1, Cooldown: 1},
		{Window: 64, Dither: true, Seed: 5},
		{Window: 8, CheckEvery: 1, Cooldown: 1, Dither: true, Seed: 9},
		// Windows that are not powers of two, where b/Window is inexact.
		{Window: 100, CheckEvery: 7},
		{Window: 257, CheckEvery: 1, Cooldown: 1},
	} {
		got, err := New(plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		refMon, err := New(plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := &referenceMonitor{m: refMon, windows: make(map[int][]float64)}
		r := rng.New(uint64(opts.Window) + 1)
		fired, checked := 0, 0
		for i := 0; i < 12000; i++ {
			rec := sampler.Draw(r)
			shift := 0.0
			if (i/1500)%2 == 1 {
				shift = 2.5 // drift phases
			}
			for k := range rec.X {
				q := plan.Cell(rec.U, k).Q
				switch r.IntN(12) {
				case 0, 1, 2:
					rec.X[k] = q[r.IntN(len(q))]
				case 3:
					rec.X[k] = q[0] - 1
				case 4:
					rec.X[k] = q[len(q)-1] + r.Float64()
				case 5:
					rec.X[k] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}[r.IntN(4)]
				default:
					rec.X[k] += shift
				}
			}
			a, err := got.Observe(rec)
			if err != nil {
				t.Fatal(err)
			}
			b := ref.observe(t, rec)
			if len(a) != len(b) {
				t.Fatalf("opts %+v record %d: %d alarms, reference %d", opts, i, len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] || math.Float64bits(a[j].Stat) != math.Float64bits(b[j].Stat) {
					t.Fatalf("opts %+v record %d: alarm %v, reference %v", opts, i, a[j], b[j])
				}
			}
			fired += len(a)
			for key, cs := range got.cells {
				if cs == nil {
					continue
				}
				rs := refMon.cells[key]
				if math.Float64bits(cs.ksRatio) != math.Float64bits(rs.ksRatio) || math.Float64bits(cs.psiRatio) != math.Float64bits(rs.psiRatio) {
					t.Fatalf("opts %+v record %d cell %v: ratios (%v, %v), reference (%v, %v)",
						opts, i, key, cs.ksRatio, cs.psiRatio, rs.ksRatio, rs.psiRatio)
				}
				if cs.ksRatio != 0 {
					checked++
				}
			}
		}
		if fired == 0 || checked == 0 {
			t.Fatalf("opts %+v: %d alarms, %d checked cells — the stream exercised nothing", opts, fired, checked)
		}
	}
}
