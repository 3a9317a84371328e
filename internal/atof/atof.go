// Package atof reads a decimal number to float64 where it stands in a
// codec's input, with the bits strconv.ParseFloat(s, 64) gives, without
// its general-purpose scanner on the inputs the wire and CSV codecs carry.
//
// ParsePrefix makes one pass over -?digits[.digits][(e|E)[+-]digits] at
// the front of its input with at most 19 significant digits, giving an
// exact uint64 mantissa, a base-10 exponent and the number's length, so a
// codec reads a number where it stands in a row and goes on from its end.
// The value is then Clinger's exact multiply or divide when both operands
// are exact floats (mantissa below 2^53, |exponent| ≤ 22), or Eisel–Lemire
// (Lemire, "Number Parsing at a Gigabyte per Second", arXiv 2101.11408)
// over a table of truncated 128-bit powers of ten. Every other input —
// other syntax, more digits, an exponent outside the table, and
// Eisel–Lemire's halfway and out-of-range bail-outs — is left to the
// caller's strconv.ParseFloat, so every error and every hard case comes
// from the standard library. Each path is correctly rounded, so the value
// bits never depend on which one ran.
package atof

import (
	"math"
	"math/big"
	"math/bits"
)

// ParsePrefix reads the number at the front of b when it has the fast
// path's shape, returning the number of bytes it spans (0 when b does not
// start with one) and, with ok, its value strconv.ParseFloat(string(b[:n]),
// 64). What follows the number is left to the caller. A number of the
// shape whose value the fast path does not settle — more than 19
// significant digits, an exponent outside the table, a subnormal or
// infinite result, a rounding Eisel–Lemire leaves open — comes back with
// its length and !ok, for the caller to hand b[:n] to strconv.
func ParsePrefix(b []byte) (f float64, n int, ok bool) {
	i, neg := 0, false
	if len(b) > 0 && b[0] == '-' {
		i, neg = 1, true
	}
	// man takes the digits from the first non-zero one; nd counts them. man
	// is exact while nd ≤ 19 (below 10^19 < 2^64) and refused beyond, where
	// it may have wrapped.
	start := i
	i = skipZeros(b, i)
	sig := i
	man, i := digits(b, i, 0)
	if i == start {
		return 0, 0, false
	}
	nd, exp10 := i-sig, 0
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		if nd == 0 {
			i = skipZeros(b, i)
		}
		sig = i
		man, i = digits(b, i, man)
		if i == frac {
			return 0, 0, false
		}
		nd += i - sig
		exp10 = frac - i
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		expDigits := i
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 100000 { // saturates far outside the table, never overflows
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == expDigits {
			return 0, 0, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	if nd > 19 {
		return 0, i, false
	}
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), i, true
		}
		return 0, i, true
	}
	if man < 1<<53 && -22 <= exp10 && exp10 <= 22 {
		f := float64(man)
		if exp10 >= 0 {
			f *= exactPow10[exp10]
		} else {
			f /= exactPow10[-exp10]
		}
		if neg {
			f = -f
		}
		return f, i, true
	}
	f, ok = eiselLemire(man, exp10, neg)
	return f, i, ok
}

// digits appends the run of decimal digits at b[i:] to man and returns man
// and the end of the run. Past 19 digits man wraps; the caller refuses such
// a mantissa.
func digits(b []byte, i int, man uint64) (uint64, int) {
	for ; i < len(b) && isDigit(b[i]); i++ {
		man = man*10 + uint64(b[i]-'0')
	}
	return man, i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func skipZeros(b []byte, i int) int {
	for i < len(b) && b[i] == '0' {
		i++
	}
	return i
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// The exponent range of pow10Wide. A 19-digit mantissa with an exponent in
// it covers roughly 1e-64 to 1e83; anything outside goes to strconv.
const minExp10, maxExp10 = -64, 64

// pow10Wide[e-minExp10] is {hi, lo}: 10^e as a 128-bit mantissa with its
// top bit set, rounded down, so that 10^e ≈ (hi·2^64 + lo)·2^(⌊e·log2 10⌋−127).
var pow10Wide = func() (t [maxExp10 - minExp10 + 1][2]uint64) {
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for e := minExp10; e <= maxExp10; e++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		m := new(big.Int)
		switch shift := p.BitLen() - 128; {
		case e < 0: // ⌊2^(127+bitlen)/10^|e|⌋ lies in (2^127, 2^128)
			m.Quo(m.Lsh(big.NewInt(1), uint(127+p.BitLen())), p)
		case shift >= 0:
			m.Rsh(p, uint(shift))
		default:
			m.Lsh(p, uint(-shift))
		}
		t[e-minExp10][1] = new(big.Int).And(m, mask).Uint64()
		t[e-minExp10][0] = m.Rsh(m, 64).Uint64()
	}
	return t
}()

// eiselLemire returns man·10^exp10 correctly rounded, or !ok where the
// truncated product cannot decide the rounding, the exponent is outside
// the table, or the result is subnormal, infinite or out of range. man is
// non-zero. The steps follow Go's strconv (eisel_lemire.go) and Nigel Tao's
// write-up of the algorithm.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < minExp10 || exp10 > maxExp10 {
		return 0, false
	}
	pow := &pow10Wide[exp10-minExp10]

	// Normalise man to its top bit; 217706·e>>16 is ⌊e·log2 10⌋ over the
	// table's range.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	exp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	// The high 64 bits of the 128-bit power usually settle the top 54 bits
	// of the product; when the low bits are all ones, add the low word's
	// contribution, and give up when that still leaves them ambiguous.
	hi, lo := bits.Mul64(man, pow[0])
	if hi&0x1FF == 0x1FF && lo+man < man {
		yHi, yLo := bits.Mul64(man, pow[1])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}

	// Keep 54 bits, refuse an exact halfway case, then round to 53.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	// exp2 is unsigned: 0 or a wrapped negative is subnormal, ≥ 0x7FF is
	// infinite.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	fb := exp2<<52 | mant&(1<<52-1)
	if neg {
		fb |= 1 << 63
	}
	return math.Float64frombits(fb), true
}
