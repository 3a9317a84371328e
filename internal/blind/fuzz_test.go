package blind

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadCalibration feeds arbitrary bytes to ReadCalibration, the decoder
// behind PUT /v1/calibrations and the calibration store. It must never
// panic and never accept a non-finite value, and any calibration it accepts
// must write back to canonical bytes that read again to the same
// calibration: same bytes, same fingerprint. Seeds under
// testdata/fuzz/FuzzReadCalibration cover a non-PD covariance factor,
// mismatched dimensions and a NaN prior.
func FuzzReadCalibration(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cal, err := ReadCalibration(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkCalibrationFinite(t, cal)
		canon, err := cal.MarshalCanonical()
		if err != nil {
			t.Fatalf("accepted calibration does not serialize: %v", err)
		}
		back, err := ReadCalibration(bytes.NewReader(canon))
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
		want, _ := cal.Fingerprint()
		if got, _ := back.Fingerprint(); got != want {
			t.Fatalf("fingerprint %s after round trip, want %s", got, want)
		}
	})
}

// checkCalibrationFinite fails the test on any NaN or ±Inf a decoded
// calibration holds.
func checkCalibrationFinite(t *testing.T, c *Calibration) {
	t.Helper()
	finite := func(what string, xs ...float64) {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("accepted calibration holds %s[%d] = %v", what, i, x)
			}
		}
	}
	finite("research confidence", c.researchConfidence)
	for u := 0; u < 2; u++ {
		finite("prior", c.qda.prior[u][:]...)
		for s := 0; s < 2; s++ {
			g := c.qda.comp[u][s]
			finite("mean", g.mean...)
			finite("chol", g.chol...)
			finite("log norm", g.logNorm)
		}
		for _, pm := range c.pooled[u] {
			finite("pooled pmf", pm.pmf...)
			finite("pooled h", pm.h)
		}
	}
}
