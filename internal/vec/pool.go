package vec

import "sync"

// bufPool recycles float64 scratch slices across hot-loop iterations. The
// separable kernel's axis contractions and the factored plans' row
// expansion borrow O(n) buffers on every application; pooling them removes
// that allocation traffic from the inner loops entirely.
var bufPool = sync.Pool{
	New: func() any {
		s := make([]float64, 0, 256)
		return &s
	},
}

// GetBufRaw returns a scratch slice of length n from the pool with
// unspecified contents: every caller overwrites each element (axis
// contractions, plan rows), and at large sizes a clear would be a
// measurable fraction of the work. Callers must return it with PutBuf when
// done and must not retain references past the PutBuf.
func GetBufRaw(n int) []float64 {
	p := bufPool.Get().(*[]float64)
	s := *p
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// PutBuf returns a slice obtained from GetBufRaw to the pool.
func PutBuf(s []float64) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	bufPool.Put(&s)
}
