package monitor

import (
	"errors"
	"math"
)

// Distribution-shift thresholds and the PSI used by the stream monitor —
// no external dependencies, following the repository's stdlib-only rule.
// The monitor computes its KS statistics from counted windows; the
// raw-sample KS and binning references they are checked against live in
// stats_test.go.

// KSCritical returns the approximate two-sample KS rejection threshold at
// level alpha: c(α)·√((n+m)/(n·m)) with c(α) = √(−ln(α/2)/2). Valid for
// moderate sample sizes, which is all a rolling window provides.
func KSCritical(n, m int, alpha float64) float64 {
	if n <= 0 || m <= 0 || alpha <= 0 || alpha >= 1 {
		return math.Inf(1)
	}
	c := math.Sqrt(-math.Log(alpha/2) / 2)
	return c * math.Sqrt(float64(n+m)/(float64(n)*float64(m)))
}

// KSOneSampleCritical is the one-sample KS threshold √(−ln(α/2)/2)/√n.
func KSOneSampleCritical(n int, alpha float64) float64 {
	if n <= 0 || alpha <= 0 || alpha >= 1 {
		return math.Inf(1)
	}
	return math.Sqrt(-math.Log(alpha/2)/2) / math.Sqrt(float64(n))
}

// PSI computes the population stability index between an expected and an
// actual pmf on shared bins:
//
//	PSI = Σ_i (actual_i − expected_i)·ln(actual_i / expected_i).
//
// Industry convention reads PSI < 0.1 as stable, 0.1–0.2 as moderate shift
// and > 0.2 as major shift. Bins are floored to keep the logs finite.
func PSI(expected, actual []float64) (float64, error) {
	if len(expected) != len(actual) || len(expected) == 0 {
		return 0, errors.New("monitor: PSI needs matching non-empty pmfs")
	}
	const floor = 1e-6
	psi := 0.0
	for i := range expected {
		e := math.Max(expected[i], floor)
		a := math.Max(actual[i], floor)
		psi += (a - e) * math.Log(a/e)
	}
	return psi, nil
}
