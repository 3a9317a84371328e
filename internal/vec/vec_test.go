package vec

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func almostEq(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) || math.Abs(got-want) > tol*(1+math.Abs(want)) {
		t.Fatalf("%s: got %v want %v", msg, got, want)
	}
}

func TestReductions(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(300)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64() * 3
			y[i] = r.NormFloat64() * 3
		}
		sum, dot, sad := 0.0, 0.0, 0.0
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range x {
			sum += x[i]
			dot += x[i] * y[i]
			sad += math.Abs(x[i] - y[i])
			if x[i] < lo {
				lo = x[i]
			}
			if x[i] > hi {
				hi = x[i]
			}
		}
		almostEq(t, Sum(x), sum, 1e-12, "Sum")
		almostEq(t, Dot(x, y), dot, 1e-12, "Dot")
		almostEq(t, SumAbsDiff(x, y), sad, 1e-12, "SumAbsDiff")
		glo, ghi := MinMax(x)
		almostEq(t, glo, lo, 0, "MinMax lo")
		almostEq(t, ghi, hi, 0, "MinMax hi")

		m := sum / float64(n)
		ssd := 0.0
		for _, v := range x {
			ssd += (v - m) * (v - m)
		}
		almostEq(t, SumSqDev(x, m), ssd, 1e-12, "SumSqDev")
	}
}

func TestAxpyScale(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	want := []float64{12, 24, 36}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v want %v", i, y[i], want[i])
		}
	}
	Scale(0.5, y)
	for i := range y {
		if y[i] != want[i]/2 {
			t.Fatalf("Scale[%d] = %v", i, y[i])
		}
	}
}

// TestGaussianAccum pins the two-multiply recurrence to the direct
// exponential evaluation within 1e-12 relative across window widths, grid
// steps and offsets covering everything the KDE layer can produce.
func TestGaussianAccum(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(900)
		d := math.Exp(r.Float64()*6 - 4) // step in [e^-4, e^2]
		if float64(n)*d > 17 {
			n = int(17/d) + 1 // keep the window inside the ±8.5σ cutoff
		}
		u0 := -8.5 + r.Float64()*2
		w := math.Exp(r.Float64()*4 - 2)
		got := make([]float64, n)
		// Non-zero initial contents: Accum must add, not overwrite.
		for i := range got {
			got[i] = r.Float64()
		}
		want := append([]float64(nil), got...)
		for j := range want {
			u := u0 + float64(j)*d
			want[j] += w * math.Exp(-0.5*u*u)
		}
		GaussianAccum(got, u0, d, w)
		for j := range got {
			if math.Abs(got[j]-want[j]) > 1e-12*(1+math.Abs(want[j])) {
				t.Fatalf("trial %d: dst[%d] = %v want %v (n=%d d=%v u0=%v)", trial, j, got[j], want[j], n, d, u0)
			}
		}
	}
}

func TestBufPool(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				n := 1 + r.Intn(1000)
				b := GetBufRaw(n)
				if len(b) != n {
					t.Errorf("GetBufRaw(%d) length %d", n, len(b))
					return
				}
				for j := range b {
					b[j] = float64(j)
				}
				PutBuf(b)
			}
		}(int64(w))
	}
	wg.Wait()
}

func BenchmarkGaussianAccum(b *testing.B) {
	dst := make([]float64, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GaussianAccum(dst, -8.5, 17.0/1024, 1)
	}
}

func BenchmarkGaussianDirect(b *testing.B) {
	dst := make([]float64, 1024)
	const d = 17.0 / 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range dst {
			u := -8.5 + float64(j)*d
			dst[j] += math.Exp(-0.5 * u * u)
		}
	}
}
