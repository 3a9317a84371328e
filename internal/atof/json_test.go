package atof

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

// checkMatchesMarshal holds AppendJSON and CheckJSON to json.Marshal on v:
// the same text for a finite v, the same error for NaN and ±Inf.
func checkMatchesMarshal(t *testing.T, v float64) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	err := CheckJSON(v)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("CheckJSON(%v) = %v, json.Marshal error %v", v, err, wantErr)
	}
	if err != nil {
		var uerr *json.UnsupportedValueError
		if err.Error() != wantErr.Error() || !errors.As(err, &uerr) {
			t.Fatalf("CheckJSON(%v) = %v, want %v", v, err, wantErr)
		}
		return
	}
	if got := AppendJSON([]byte("x"), v); string(got) != "x"+string(want) {
		t.Fatalf("AppendJSON(%v) = %q, want %q", v, got[1:], want)
	}
}

func TestAppendJSONMatchesMarshal(t *testing.T) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 5e-324, -5e-324,
		2.2250738585072014e-308, 1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7,
		1.5e-10, 1e-100, 1e21, math.Nextafter(1e21, 0), -1e21, 1e20,
		1.2345e22, 1e300, math.MaxFloat64, -math.MaxFloat64, 123456789012345678,
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		checkMatchesMarshal(t, v)
	}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 100000; i++ {
		checkMatchesMarshal(t, math.Float64frombits(r.Uint64()))
	}
}
