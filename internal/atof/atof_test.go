package atof

import (
	"errors"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
)

// Parse reads a whole field as the codecs do: ParsePrefix when it spans b
// and settles the value, else strconv.ParseFloat(string(b), 64). The
// tests hold it to strconv bit for bit and error for error.
func Parse(b []byte) (float64, error) {
	if f, n, ok := ParsePrefix(b); ok && n == len(b) {
		return f, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// edgeCases are the inputs each side of every branch in Parse: signed
// zeros, leading zeros, the 19-digit mantissa limit, Clinger's bounds,
// Eisel–Lemire's halfway bail-out, the table's exponent range, and syntax
// strconv accepts or rejects outside the fast path's grammar.
var edgeCases = []string{
	"0", "-0", "0.0", "-0.0", "0e999999999", "-0e-999999999",
	"00012.5", "-00012.5", "0.000000000000000000001234", "000",
	"1234567890123456789", "12345678901234567890",
	"9999999999999999999", "18446744073709551615", "18446744073709551616",
	"0.1234567890123456789", "1.234567890123456789e-50",
	"9007199254740992", "9007199254740993", "9007199254740995",
	"1e22", "1e23", "-1e22", "4.35e22", "1e-22", "1e-23",
	"2.2250738585072011e-308", "2.2250738585072014e-308", "4.9e-324",
	"1.7976931348623157e308", "1.7976931348623159e308",
	"1e-400", "1e400", "-1e400", "1e64", "1e65", "1e-64", "1e-65",
	"123456789e-70", "123456789e60",
	"3.5417826412806617", "-0.16243453636632417", "1.0000000000000002",
	"0.30000000000000004", "5e-324", "1E5", "1e+5", "1e-5", "1.5E-05",
	"5.", ".5", "+1", "1_0", "0x1p3", "inf", "-Inf", "NaN", "infinity",
	"1e", "1e+", "1e-", "-", "", ".", "-.", "e5", "1..2", "1.2.3", "1e5e5",
	" 1", "1 ", "1,", "١",
}

func checkMatchesStrconv(t *testing.T, in string) {
	t.Helper()
	got, gotErr := Parse([]byte(in))
	want, wantErr := strconv.ParseFloat(in, 64)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("Parse(%q) = %v (%#x), strconv gives %v (%#x)", in, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Errorf("Parse(%q) error %v, strconv gives %v", in, gotErr, wantErr)
	}
}

func TestParseEdgeCases(t *testing.T) {
	for _, in := range edgeCases {
		checkMatchesStrconv(t, in)
	}
}

// TestParseFastPathTakesTheCodecShapes pins that the values the codecs
// carry — shortest round-trip 'g' text of at most 17 significant digits —
// never reach strconv, so the speed-up cannot silently vanish.
func TestParseFastPathTakesTheCodecShapes(t *testing.T) {
	for _, in := range []string{"3.5417826412806617", "-0.16243453636632417", "1.5e-05", "2.5e+21", "0", "-0", "7", "1e22", "1e-30"} {
		if _, n, ok := ParsePrefix([]byte(in)); !ok || n != len(in) {
			t.Errorf("ParsePrefix(%q) = %d bytes, %v: fell back to strconv", in, n, ok)
		}
	}
}

// TestParseMatchesStrconvOnFormattedValues sweeps random float64 bit
// patterns and Gaussian values through every format the codecs could
// meet, shortest and at fixed precisions.
func TestParseMatchesStrconvOnFormattedValues(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	formats := []struct {
		fmt  byte
		prec int
	}{{'g', -1}, {'e', -1}, {'f', -1}, {'g', 17}, {'e', 18}, {'g', 19}, {'g', 20}, {'f', 6}, {'e', 3}}
	for range 20000 {
		var x float64
		switch r.IntN(3) {
		case 0:
			x = 3 + 2*r.NormFloat64()
		case 1:
			x = math.Float64frombits(r.Uint64())
		default:
			x = r.Float64() * math.Pow(10, float64(r.IntN(140)-70))
		}
		for _, f := range formats {
			checkMatchesStrconv(t, strconv.FormatFloat(x, f.fmt, f.prec, 64))
		}
	}
	// Mantissas and exponents drawn independently reach halfway and
	// near-halfway products that formatting a float never writes.
	for range 20000 {
		s := strconv.FormatUint(r.Uint64()>>r.IntN(64), 10) + "e" + strconv.Itoa(r.IntN(160)-80)
		checkMatchesStrconv(t, s)
	}
}

// TestParseDigitRuns walks the digit runs across the 19-digit mantissa
// limit: runs of 1 to 20 in the integer and the fraction part, leading
// zeros before and after the point, '/' (0x2F) and ':' (0x3A) — the bytes
// either side of the digits — inside a run or right after one, signed
// zeros and exponents. Parse must match strconv, and ParsePrefix must
// stop where the number does when text follows it.
func TestParseDigitRuns(t *testing.T) {
	const run = "98765432109876543210"
	var ins []string
	for n := 1; n <= 20; n++ {
		ins = append(ins, run[:n], "-"+run[:n], "1."+run[:n], "0."+run[:n], run[:n]+".5", run[:n]+"."+run[:n])
		zeros := strings.Repeat("0", n)
		ins = append(ins, zeros+"12", zeros+"1.5", "0."+zeros+"123", "-0."+zeros, zeros+"."+zeros+"7")
		for _, exp := range []string{"e5", "E-7", "e+22", "e-300", "e400"} {
			ins = append(ins, run[:n]+exp, "3."+run[:n]+exp)
		}
	}
	for w := 0; w <= 9; w++ {
		for _, c := range []string{"/", ":"} {
			ins = append(ins, run[:w]+c+run[:8], "1."+run[:w]+c+"9", run[:8]+c)
		}
	}
	ins = append(ins, "-0", "-0.0", "-00000000.00000000", "0e0", "-0e-5")
	for _, in := range ins {
		checkMatchesStrconv(t, in)
		_, inErr := strconv.ParseFloat(in, 64)
		whole := inErr == nil || errors.Is(inErr, strconv.ErrRange)
		for _, tail := range []string{"", ",", "/", ":", " ", "\n", "x12345678"} {
			f, n, ok := ParsePrefix([]byte(in + tail))
			if n == 0 || n > len(in) || whole && n != len(in) {
				if n != 0 || ok || whole {
					t.Errorf("ParsePrefix(%q) = %d bytes, ok %v; strconv takes %q: %v", in+tail, n, ok, in, inErr)
				}
				continue
			}
			want, err := strconv.ParseFloat(in[:n], 64)
			if ok && (err != nil || math.Float64bits(f) != math.Float64bits(want)) {
				t.Errorf("ParsePrefix(%q) = %v over %d bytes; strconv gives %v, %v", in+tail, f, n, want, err)
			}
		}
	}
}

// TestPow10WideTable pins the table's layout and normalisation: 10^0 and
// 10^1 are exact at the top of the 128 bits, every entry has its top bit
// set, and 10^-1 is the truncated binary expansion of 0.1.
func TestPow10WideTable(t *testing.T) {
	for _, c := range []struct {
		e      int
		hi, lo uint64
	}{
		{0, 0x8000000000000000, 0},
		{1, 0xA000000000000000, 0},
		{2, 0xC800000000000000, 0},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
	} {
		if got := pow10Wide[c.e-minExp10]; got != [2]uint64{c.hi, c.lo} {
			t.Errorf("10^%d: {%#x, %#x}, want {%#x, %#x}", c.e, got[0], got[1], c.hi, c.lo)
		}
	}
	for e := minExp10; e <= maxExp10; e++ {
		if pow10Wide[e-minExp10][0]>>63 != 1 {
			t.Errorf("10^%d: high word %#x is not normalised", e, pow10Wide[e-minExp10][0])
		}
	}
}

// FuzzParse holds Parse to strconv.ParseFloat: the same value bits, the
// same err == nil, the same error text.
func FuzzParse(f *testing.F) {
	for _, in := range edgeCases {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkMatchesStrconv(t, string(b))
	})
}

// BenchmarkParse compares Parse with strconv.ParseFloat on a perfbench-style
// value (3 + 2·N(0,1), shortest 'g' text).
func BenchmarkParse(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 2))
	in := make([][]byte, 1024)
	for i := range in {
		in[i] = strconv.AppendFloat(nil, 3+2*r.NormFloat64(), 'g', -1, 64)
	}
	b.Run("atof", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			Parse(in[i%len(in)])
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			strconv.ParseFloat(string(in[i%len(in)]), 64)
		}
	})
}
