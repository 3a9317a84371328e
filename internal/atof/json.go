package atof

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// AppendJSON appends a finite float64 as encoding/json writes it: the
// shortest round-tripping 'f' form, switching to 'e' for magnitudes below
// 1e-6 or from 1e21 up, with a two-digit negative exponent shortened
// (e-07 → e-7). It is the one float formatter of the /v1/repair NDJSON
// encoder and the canonical plan encoder; callers reject NaN and ±Inf
// with CheckJSON first.
func AppendJSON(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// CheckJSON returns the error encoding/json's encoder returns for v when
// v is NaN or ±Inf ("json: unsupported value: NaN"), and nil for a finite
// v, which AppendJSON can write.
func CheckJSON(v float64) error {
	if v-v != 0 { // NaN or ±Inf, the only values v−v is not 0 for
		return unsupportedJSON(v)
	}
	return nil
}

// unsupportedJSON is CheckJSON's error, kept out of line so CheckJSON
// inlines into the encoders' per-value loops.
func unsupportedJSON(v float64) error {
	return &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
}
