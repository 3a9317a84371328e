package rng

import (
	"math"
	"slices"
)

// AliasSlot is one cell of a Walker/Vose alias table with the caller's
// category labels folded in. Algorithm 2 draws one categorical sample per
// archival point per feature from the same plan rows, so the per-draw cost
// matters when repairing torrents of archival data: a draw picks a slot
// uniformly and keeps Hit with probability Prob, otherwise it takes Miss —
// two uniforms, one comparison and one 16-byte load whatever the row's
// width. Hit is the label of the slot's own category and Miss the label of
// its alias.
type AliasSlot struct {
	Prob      float64
	Hit, Miss int32
}

// Resolve returns the label a draw that picked this slot lands on, given
// the draw's second uniform u.
func (s *AliasSlot) Resolve(u float64) int32 {
	if u < s.Prob {
		return s.Hit
	}
	return s.Miss
}

// DrawAlias draws a label from the alias table t: the slot index
// IntN(len(t)) and then the Float64 that Resolve compares, the two calls
// every alias draw makes in this order.
func (r *RNG) DrawAlias(t []AliasSlot) int {
	i := r.IntN(len(t))
	return int(t[i].Resolve(r.Float64()))
}

// AliasBuilder builds alias tables by Vose's method, keeping its scratch
// between tables so a caller building thousands of plan rows allocates
// once. The zero value is ready to use; a builder is not safe for
// concurrent use.
type AliasBuilder struct {
	scaled       []float64
	small, large []int
}

// Append builds the alias table of the (possibly unnormalized)
// non-negative weight vector w, labelling category i with labels[i], and
// appends its len(w) slots to dst, returning the extended slice. Callers
// that keep subslices of dst across calls size its capacity up front. It
// panics on empty, negative, NaN or zero-total weights: a zero-mass row of
// an OT plan is a design bug upstream that must not be masked here.
func (b *AliasBuilder) Append(dst []AliasSlot, w []float64, labels []int32) []AliasSlot {
	n := len(w)
	if n == 0 {
		panic("rng: alias table over empty weights")
	}
	if len(labels) != n {
		panic("rng: alias table needs one label per weight")
	}
	total := 0.0
	for _, wi := range w {
		if wi < 0 || math.IsNaN(wi) {
			panic("rng: alias table over a negative or NaN weight")
		}
		total += wi
	}
	if total <= 0 {
		panic("rng: alias table over zero total mass")
	}
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	t := dst[base:]
	if n == 1 {
		// Degenerate table: exact monotone plan rows are 1–2 atoms, so a
		// plan sampler builds thousands of these; skip the worklists.
		t[0] = AliasSlot{Prob: 1, Hit: labels[0], Miss: labels[0]}
		return dst
	}
	// Scaled probabilities: mean 1.
	scaled := b.scaled[:0]
	for _, wi := range w {
		scaled = append(scaled, wi*float64(n)/total)
	}
	small, large := b.small[:0], b.large[:0]
	for i, p := range scaled {
		if p < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]

		t[s] = AliasSlot{Prob: scaled[s], Hit: labels[s], Miss: labels[l]}
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		t[i] = AliasSlot{Prob: 1, Hit: labels[i], Miss: labels[i]}
	}
	for _, i := range small {
		// Only reachable through floating-point round-off; these cells have
		// scaled mass within ulps of 1.
		t[i] = AliasSlot{Prob: 1, Hit: labels[i], Miss: labels[i]}
	}
	b.scaled, b.small, b.large = scaled, small[:0], large[:0]
	return dst
}
