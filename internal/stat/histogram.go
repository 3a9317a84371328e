package stat

import (
	"errors"
	"sort"
)

// Histogram is a fixed-width binning of a 1-D sample. Besides diagnostics,
// it implements the grid-projection step used when a continuous quantile
// function must be re-expressed as a pmf on an interpolated support.
type Histogram struct {
	// Edges has len(Counts)+1 entries; bin i covers [Edges[i], Edges[i+1]),
	// with the final bin closed on the right.
	Edges  []float64
	Counts []float64
	// Below and Above count observations outside [Edges[0], Edges[last]].
	Below, Above int
}

// NewHistogram builds an empty histogram with nBins uniform bins over
// [lo, hi]. It returns an error for invalid geometry so callers surface
// configuration mistakes (e.g. nQ = 0 from a CLI flag) early.
func NewHistogram(lo, hi float64, nBins int) (*Histogram, error) {
	if nBins <= 0 {
		return nil, errors.New("stat: histogram needs at least one bin")
	}
	if !(hi > lo) {
		return nil, errors.New("stat: histogram needs hi > lo")
	}
	return &Histogram{
		Edges:  Linspace(lo, hi, nBins+1),
		Counts: make([]float64, nBins),
	}, nil
}

// Add folds one observation with unit weight.
func (h *Histogram) Add(x float64) { h.AddWeighted(x, 1) }

// AddWeighted folds one observation with the given weight.
func (h *Histogram) AddWeighted(x, w float64) {
	lo, hi := h.Edges[0], h.Edges[len(h.Edges)-1]
	switch {
	case x < lo:
		h.Below++
	case x > hi:
		h.Above++
	case x == hi:
		h.Counts[len(h.Counts)-1] += w
	default:
		width := (hi - lo) / float64(len(h.Counts))
		i := int((x - lo) / width)
		if i >= len(h.Counts) {
			i = len(h.Counts) - 1
		}
		h.Counts[i] += w
	}
}

// PMF returns the bin masses normalized to sum to one. It returns an error
// when the histogram holds no in-range mass.
func (h *Histogram) PMF() ([]float64, error) {
	out := append([]float64(nil), h.Counts...)
	return Normalize(out)
}

// Centers returns the midpoints of the bins.
func (h *Histogram) Centers() []float64 {
	out := make([]float64, len(h.Counts))
	for i := range out {
		out[i] = 0.5 * (h.Edges[i] + h.Edges[i+1])
	}
	return out
}

// ECDF is an empirical cumulative distribution function over a sorted
// sample. It supplies the group quantile functions of the 1-D quantile
// repair (core.QuantilePlan), whose target is their W2 barycentre.
type ECDF struct {
	// xs is ascending; cum[i] is the cumulative probability mass at and
	// below xs[i]; cum[len-1] == 1.
	xs  []float64
	cum []float64
}

// NewECDF builds an ECDF from an unsorted sample.
func NewECDF(sample []float64) (*ECDF, error) {
	if len(sample) == 0 {
		return nil, ErrEmpty
	}
	xs := append([]float64(nil), sample...)
	sort.Float64s(xs)
	cum := make([]float64, len(xs))
	step, acc := 1/float64(len(xs)), 0.0
	for i := range xs {
		acc += step
		cum[i] = acc
	}
	cum[len(cum)-1] = 1 // pin against round-off
	return &ECDF{xs: xs, cum: cum}, nil
}

// CDF evaluates the right-continuous empirical CDF at x.
func (e *ECDF) CDF(x float64) float64 {
	// Number of support points ≤ x.
	i := sort.SearchFloat64s(e.xs, x)
	// SearchFloat64s returns the first index with xs[i] >= x; advance over
	// ties equal to x to make the CDF right-continuous.
	for i < len(e.xs) && e.xs[i] == x {
		i++
	}
	if i == 0 {
		return 0
	}
	return e.cum[i-1]
}

// Quantile evaluates the generalized inverse CDF at probability p:
// the smallest support point x with CDF(x) ≥ p.
func (e *ECDF) Quantile(p float64) float64 {
	if p <= 0 {
		return e.xs[0]
	}
	if p >= 1 {
		return e.xs[len(e.xs)-1]
	}
	i := sort.Search(len(e.cum), func(i int) bool { return e.cum[i] >= p })
	if i == len(e.cum) {
		i = len(e.cum) - 1
	}
	return e.xs[i]
}

// Support returns the sorted support points of the ECDF.
func (e *ECDF) Support() []float64 { return e.xs }
