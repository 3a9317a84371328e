// Package monitor guards the stationarity assumption the paper's deployment
// mode rests on (Section IV requirement 2 and the Section VI discussion):
// repair plans are designed once on research data and then applied to
// unbounded archival torrents, which is only sound while the torrent keeps
// drawing from the design-time population. The stream monitor compares a
// rolling window of incoming feature values against the plan's own
// interpolated marginals (one-sample KS plus PSI) per (u,s,feature) cell
// and raises alarms when the plan has gone stale; the stopping rule answers
// the complementary design-time question — how much research data is enough
// (Section VI: "stopping rules for learning of the marginals").
package monitor

import (
	"errors"
	"fmt"
	"math"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/kde"
	"otfair/internal/rng"
	"otfair/internal/stat"
)

// AlarmKind labels which statistic tripped.
type AlarmKind int

const (
	// AlarmKS marks a one-sample Kolmogorov–Smirnov rejection.
	AlarmKS AlarmKind = iota
	// AlarmPSI marks a population-stability-index excursion.
	AlarmPSI
)

// String names the alarm kind.
func (k AlarmKind) String() string {
	if k == AlarmPSI {
		return "psi"
	}
	return "ks"
}

// Alarm reports one stale cell: the (u,s,feature) whose incoming window no
// longer matches the design-time marginal.
type Alarm struct {
	// U, S, K locate the cell.
	U, S, K int
	// Kind is the statistic that tripped.
	Kind AlarmKind
	// Stat is the observed statistic and Threshold the bound it crossed.
	Stat, Threshold float64
	// Window is the number of observations the statistic was computed on.
	Window int
	// Seen is the total number of records observed when the alarm fired.
	Seen int64
}

// String renders an alarm for logs.
func (a Alarm) String() string {
	return fmt.Sprintf("monitor: drift in (u=%d,s=%d,k=%d): %s=%.4f > %.4f (window %d, after %d records)",
		a.U, a.S, a.K, a.Kind, a.Stat, a.Threshold, a.Window, a.Seen)
}

// Options configures the stream monitor.
type Options struct {
	// Window is the per-cell rolling window length (default 256).
	Window int
	// CheckEvery runs the statistics once per this many observations in a
	// cell after its window first fills (default Window/4).
	CheckEvery int
	// Alpha is the KS test level (default 0.001). The reference marginal is
	// itself estimated from finite research data with KDE smoothing and
	// grid quantization, so the operating level is approximate; the default
	// is conservative to keep stationary streams quiet.
	Alpha float64
	// PSIWarn is the PSI alarm threshold (default 0.25, the upper edge of
	// the industry "major shift" convention — again conservative because
	// the expected-bin masses carry estimation error).
	PSIWarn float64
	// Cooldown suppresses repeat alarms from one cell for this many
	// observations after it fires (default Window), so a persistent drift
	// produces a report per window rather than per record.
	Cooldown int
	// Dither perturbs each incoming value by the cell's design bandwidth
	// before windowing, mirroring core.RepairOptions.KernelDither: the
	// reference pmfs are KDE-smoothed, so atomic or integer features (e.g.
	// Adult's 40-hours spike) otherwise register a permanent KS gap of
	// about half the atom's mass and page forever. Dithered inputs are
	// distributionally consistent with the smoothed reference. Off by
	// default; turn it on whenever the repair itself runs with dithering.
	Dither bool
	// Seed drives the dithering noise (default 1; only used with Dither).
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Window == 0 {
		o.Window = 256
	}
	if o.CheckEvery == 0 {
		o.CheckEvery = o.Window / 4
		if o.CheckEvery == 0 {
			o.CheckEvery = 1
		}
	}
	if o.Alpha == 0 {
		o.Alpha = 0.001
	}
	if o.PSIWarn == 0 {
		o.PSIWarn = 0.25
	}
	if o.Cooldown == 0 {
		o.Cooldown = o.Window
	}
	return o
}

// cellState is one (u,s,k) rolling window, held as counts on the cell's
// grid Q so a check reads prefix sums instead of sorting the window:
// counts[2i] holds the values in (Q[i−1], Q[i]) — below Q[0] for i = 0,
// NaN included, which is where sorting puts it — counts[2i+1] the values
// equal to Q[i], and counts[2n] the values above Q[n−1]. Q is strictly
// ascending (a plan invariant), so these cells partition the line.
type cellState struct {
	ring     []int32 // grid cell of each windowed value
	counts   []int   // windowed values per grid cell
	n        int     // filled length (≤ cap)
	next     int     // ring write position
	sinceChk int     // observations since last check
	cooldown int     // observations to skip alarming for
	observed int64   // lifetime observations
	// ksRatio and psiRatio are the statistic/threshold ratios of the most
	// recent check — a continuous drift score (≥ 1 means alarming), kept
	// even when no alarm fires so dashboards and the drift-watch loop can
	// see drift building and, after a recalibration, receding.
	ksRatio, psiRatio float64
}

// cellRef is what one cell's checks compare against, built at its first
// check: the reference CDF, the coarse-binned PSI reference and both alarm
// thresholds, which depend only on the options and the research group size
// because a check only runs on a full window.
type cellRef struct {
	// cum[i] is the reference mass below grid point i, summed in pmf
	// order; cum[len(pmf)] is the total.
	cum []float64
	// edges and expected are the PSI reference: roughly equal-expected-mass
	// bins, the industry convention that keeps the index stable at
	// rolling-window sample sizes (fine 50-state bins put ~5 observations
	// in each and the index never settles). edges are grid indices: bin b
	// is right-closed at Q[edges[b]]; the last bin is unbounded.
	edges    []int
	expected []float64
	// crit is the KS critical value and psiThr the PSI alarm threshold.
	crit, psiThr float64
}

// Monitor watches a record stream against a designed plan. Not safe for
// concurrent use.
type Monitor struct {
	plan *core.Plan
	opts Options
	// cells and psi hold one entry per (u,s,feature) cell at
	// cellIndex(u, s, k); a cell is allocated on its first observation,
	// so the non-nil cells are the watched ones.
	cells []*cellState
	refs  []*cellRef
	// frac[b] is b/Window, the empirical CDF of a full window with b
	// values below a point; observed holds one check's PSI bin masses.
	// Both are allocated at the first check.
	frac     []float64
	observed []float64
	rng      *rng.RNG // nil unless Options.Dither
	seen     int64
	fired    int64
}

// cellIndex is the (u,s,feature) cell's position in Monitor.cells and
// Monitor.refs: (2u+s)·Dim + k.
func (m *Monitor) cellIndex(u, s, k int) int { return (2*u+s)*m.plan.Dim + k }

// New builds a monitor for the plan the deployment repairs with.
func New(plan *core.Plan, opts Options) (*Monitor, error) {
	if plan == nil {
		return nil, errors.New("monitor: nil plan")
	}
	opts = opts.withDefaults()
	if opts.Window < 8 {
		return nil, fmt.Errorf("monitor: window %d too small (minimum 8)", opts.Window)
	}
	if opts.Alpha <= 0 || opts.Alpha >= 1 {
		return nil, fmt.Errorf("monitor: alpha %v outside (0,1)", opts.Alpha)
	}
	m := &Monitor{
		plan:  plan,
		opts:  opts,
		cells: make([]*cellState, 4*plan.Dim),
		refs:  make([]*cellRef, 4*plan.Dim),
	}
	if opts.Dither {
		seed := opts.Seed
		if seed == 0 {
			seed = 1
		}
		m.rng = rng.New(seed)
	}
	return m, nil
}

// Seen returns the number of records observed.
func (m *Monitor) Seen() int64 { return m.seen }

// Fired returns the number of alarms raised so far.
func (m *Monitor) Fired() int64 { return m.fired }

// Summary is a point-in-time view of the monitor for serving dashboards
// (the /v1/metrics endpoint of cmd/fairserved) and logs.
type Summary struct {
	// Seen and Fired mirror the cumulative counters.
	Seen, Fired int64
	// WatchedCells is the number of (u,s,feature) cells with any
	// observations; FullWindows counts those whose rolling window has
	// filled, i.e. cells the statistics actually run on.
	WatchedCells, FullWindows int
	// MaxKSRatio and MaxPSIRatio are the worst statistic/threshold ratios
	// across cells at their most recent checks — continuous drift scores
	// where a value ≥ 1 means that statistic is past its alarm bound. Zero
	// until some cell's window has filled and been checked.
	MaxKSRatio, MaxPSIRatio float64
}

// Snapshot summarizes the monitor's current state. Like every Monitor
// method it must not race Observe; callers serialize access.
func (m *Monitor) Snapshot() Summary {
	s := Summary{Seen: m.seen, Fired: m.fired}
	for _, cs := range m.cells {
		if cs == nil {
			continue
		}
		s.WatchedCells++
		if cs.n == len(cs.ring) {
			s.FullWindows++
		}
		if cs.ksRatio > s.MaxKSRatio {
			s.MaxKSRatio = cs.ksRatio
		}
		if cs.psiRatio > s.MaxPSIRatio {
			s.MaxPSIRatio = cs.psiRatio
		}
	}
	return s
}

// Observe ingests one labelled record and returns any alarms it triggers
// (usually none). Records with unknown s are ignored: the monitor watches
// the same (u,s,k)-cells the plans are indexed by.
func (m *Monitor) Observe(rec dataset.Record) ([]Alarm, error) {
	if rec.S == dataset.SUnknown {
		return nil, nil
	}
	if rec.S != 0 && rec.S != 1 || rec.U != 0 && rec.U != 1 {
		return nil, fmt.Errorf("monitor: invalid labels (s=%d, u=%d)", rec.S, rec.U)
	}
	if len(rec.X) != m.plan.Dim {
		return nil, fmt.Errorf("monitor: record has %d features, want %d", len(rec.X), m.plan.Dim)
	}
	m.seen++
	var alarms []Alarm
	cells := m.plan.Cells[rec.U]
	base := m.cellIndex(rec.U, rec.S, 0)
	for k, x := range rec.X {
		cell := cells[k]
		cs := m.cells[base+k]
		if cs == nil {
			cs = &cellState{ring: make([]int32, m.opts.Window), counts: make([]int, 2*len(cell.Q)+1)}
			m.cells[base+k] = cs
		}
		if m.rng != nil {
			if h := cell.H[rec.S]; h > 0 && !cell.Degenerate {
				x += h * kde.Sample(m.plan.Opts.Kernel, m.rng)
			}
		}
		if cs.n == len(cs.ring) {
			cs.counts[cs.ring[cs.next]]--
		} else {
			cs.n++
		}
		c := gridCell(cell.Q, x)
		cs.ring[cs.next] = int32(c)
		cs.counts[c]++
		if cs.next++; cs.next == len(cs.ring) {
			cs.next = 0
		}
		cs.observed++
		cs.sinceChk++
		if cs.cooldown > 0 {
			cs.cooldown--
			continue
		}
		if cs.n < len(cs.ring) || cs.sinceChk < m.opts.CheckEvery {
			continue
		}
		cs.sinceChk = 0
		a, err := m.check(rec.U, rec.S, k, cs)
		if err != nil {
			return nil, err
		}
		if len(a) > 0 {
			cs.cooldown = m.opts.Cooldown
			m.fired += int64(len(a))
			alarms = append(alarms, a...)
		}
	}
	return alarms, nil
}

// check runs both statistics for one full window in one pass over the
// cell's grid. The empirical CDF just before and at each grid point is a
// prefix count b of the window, read as frac[b] — the b/n the sorted-sample
// KSAgainstPMF divides — so the KS statistic is bit-identical to it. The
// PSI bin masses come from the same prefix counts: a sum of integer counts
// is exact in floating point, so they match histogramming the raw window.
func (m *Monitor) check(u, s, k int, cs *cellState) ([]Alarm, error) {
	cell := m.plan.Cell(u, k)
	if cell.Degenerate {
		return nil, nil
	}
	ref := m.ref(u, s, k, cell)
	if m.frac == nil {
		m.frac = make([]float64, m.opts.Window+1)
		for b := range m.frac {
			m.frac[b] = float64(b) / float64(m.opts.Window)
		}
		m.observed = make([]float64, psiBinCount)
	}
	frac, counts, cum := m.frac, cs.counts, ref.cum
	observed := m.observed[:len(ref.edges)+1]
	d := 0.0
	// below counts the window values below the current grid point and
	// binStart those below the current PSI bin.
	below, binStart, bin := 0, 0, 0
	for i := 0; i < len(cum)-1; i++ {
		below += counts[2*i]
		if diff := math.Abs(frac[below] - cum[i]); diff > d {
			d = diff
		}
		below += counts[2*i+1]
		if diff := math.Abs(frac[below] - cum[i+1]); diff > d {
			d = diff
		}
		if bin < len(ref.edges) && ref.edges[bin] == i {
			observed[bin] = frac[below-binStart]
			binStart = below
			bin++
		}
	}
	observed[bin] = frac[cs.n-binStart]
	return m.judge(u, s, k, cs, d, observed, ref)
}

// judge turns one window's KS statistic and PSI bin masses into drift
// scores and alarms.
func (m *Monitor) judge(u, s, k int, cs *cellState, ks float64, observed []float64, ref *cellRef) ([]Alarm, error) {
	var alarms []Alarm
	if ref.crit > 0 {
		cs.ksRatio = ks / ref.crit
	}
	if ks > ref.crit {
		alarms = append(alarms, Alarm{U: u, S: s, K: k, Kind: AlarmKS, Stat: ks, Threshold: ref.crit, Window: cs.n, Seen: m.seen})
	}
	psi, err := PSI(ref.expected, observed)
	if err != nil {
		return nil, err
	}
	if ref.psiThr > 0 {
		cs.psiRatio = psi / ref.psiThr
	}
	if psi > ref.psiThr {
		alarms = append(alarms, Alarm{U: u, S: s, K: k, Kind: AlarmPSI, Stat: psi, Threshold: ref.psiThr, Window: cs.n, Seen: m.seen})
	}
	return alarms, nil
}

// psiBinCount is the number of coarse PSI bins (the industry-standard
// decile convention).
const psiBinCount = 10

// ref builds (and caches) one cell's reference: the CDF of its design pmf,
// the coarse equal-mass PSI binning and the alarm thresholds for a full
// window.
func (m *Monitor) ref(u, s, k int, cell *core.Cell) *cellRef {
	i := m.cellIndex(u, s, k)
	if ref := m.refs[i]; ref != nil {
		return ref
	}
	pmf := cell.PMF[s]
	ref := &cellRef{cum: make([]float64, len(pmf)+1)}
	cum, binMass := 0.0, 0.0
	bin := 1
	for i, p := range pmf {
		cum += p
		ref.cum[i+1] = cum
		binMass += p
		if cum >= float64(bin)/psiBinCount && bin < psiBinCount && i < len(cell.Q)-1 {
			ref.edges = append(ref.edges, i)
			ref.expected = append(ref.expected, binMass)
			binMass = 0
			bin++
		}
	}
	ref.expected = append(ref.expected, binMass)
	// The reference marginal was estimated from n_{R,u,s} research points,
	// so it carries sampling error of its own: the KS threshold is the
	// two-sample critical value with the research group as the second
	// sample. Without recorded group sizes, fall back to the (stricter)
	// one-sample bound.
	n := m.opts.Window
	nRef := m.plan.GroupSizes[dataset.Group{U: u, S: s}]
	ref.crit = KSOneSampleCritical(n, m.opts.Alpha)
	if nRef > 0 {
		ref.crit = KSCritical(nRef, n, m.opts.Alpha)
	}
	// Under the null, PSI on B bins behaves like a scaled χ² with
	// expectation ≈ B·(1/n_window + 1/n_ref): both the window and the
	// research-estimated reference contribute sampling noise. Lift the
	// alarm threshold by twice that expectation so small research groups
	// do not page on their own estimation error.
	ref.psiThr = m.opts.PSIWarn + 2*float64(psiBinCount)/float64(n)
	if nRef > 0 {
		ref.psiThr += 2 * float64(psiBinCount) / float64(nRef)
	}
	m.refs[i] = ref
	return ref
}

// gridCell locates x among the grid cells cellState.counts indexes.
func gridCell(q []float64, x float64) int {
	if math.IsNaN(x) {
		return 0
	}
	i := stat.SearchGrid(q, x)
	if i < len(q) && q[i] == x {
		return 2*i + 1
	}
	return 2 * i
}
