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

// GetBuf returns a zeroed scratch slice of length n from the pool. Callers
// must return it with PutBuf when done and must not retain references past
// the PutBuf.
func GetBuf(n int) []float64 {
	s := GetBufRaw(n)
	for i := range s {
		s[i] = 0
	}
	return s
}

// GetBufRaw is GetBuf without the zeroing pass: the contents are
// unspecified. Use it when every element is about to be overwritten (axis
// contractions, plan rows) — at large sizes the clear is a measurable
// fraction of the work.
func GetBufRaw(n int) []float64 {
	p := bufPool.Get().(*[]float64)
	s := *p
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// PutBuf returns a slice obtained from GetBuf to the pool.
func PutBuf(s []float64) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	bufPool.Put(&s)
}
