package stat

import "math"

// Welford is a numerically stable streaming accumulator for mean and
// variance (Welford's online algorithm). The archival repair path processes
// torrents of points sequentially; diagnostics use this type so that no
// buffering of the stream is required.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Merge combines another accumulator into this one (Chan et al. parallel
// update); used when per-goroutine accumulators are reduced.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.mean += delta * float64(o.n) / float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// N reports the number of observations.
func (w *Welford) N() int { return w.n }

// Mean reports the running mean (NaN when empty).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance reports the unbiased running variance (NaN when n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// Std reports the unbiased running standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// Min reports the smallest observation (NaN when empty).
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.min
}

// Max reports the largest observation (NaN when empty).
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.max
}
