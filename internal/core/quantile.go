package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"otfair/internal/dataset"
	"otfair/internal/stat"
)

// QuantilePlan is the rank-based repair of Feldman et al. (KDD 2015) —
// the paper's reference [4] and the ancestor of both the geometric baseline
// and the distributional method — extended here to the off-sample setting:
// the s-conditional CDFs F_{u,s,k} and the barycentric target quantile
// function are estimated once on the research data, then any archival value
// is repaired by the deterministic quantile map
//
//	x' = F_ν^{-1}( (1−λ)·rank + λ·F_{u,s,k}(x) )   with λ = 1 full repair,
//
// i.e. x' = F_ν^{-1}(F_s(x)) at full strength. Unlike Algorithm 2 this map
// is deterministic (no mass splitting), which makes it a Monge-style
// comparison point for the paper's stochastic Kantorovich repair: it
// preserves within-group ranks exactly (individual-fairness friendly,
// Section VI) but cannot split the mass of ties, so heavy atoms map as
// blocks.
type QuantilePlan struct {
	dim int
	// ecdf[u][s][k] is the research CDF of group (u,s), feature k.
	ecdf [2][2][]*stat.ECDF
	// target[u][k] is the λ-independent fair target quantile source: the
	// t=0.5 pairing of the two group quantile functions.
	amount float64
}

// DesignQuantile estimates the per-(u,s,k) research CDFs for the quantile
// repair. amount ∈ (0, 1] is the repair strength λ.
func DesignQuantile(research *dataset.Table, amount float64) (*QuantilePlan, error) {
	if research == nil || research.Len() == 0 {
		return nil, errors.New("core: empty research table")
	}
	if amount <= 0 || amount > 1 {
		return nil, fmt.Errorf("core: quantile repair amount %v outside (0,1]", amount)
	}
	cols := research.GroupColumns()
	for _, g := range dataset.Groups() {
		if len(cols[g.U][g.S][0]) == 0 {
			return nil, fmt.Errorf("core: research group %v is empty", g)
		}
	}
	qp := &QuantilePlan{dim: research.Dim(), amount: amount}
	for u := 0; u < 2; u++ {
		for s := 0; s < 2; s++ {
			qp.ecdf[u][s] = make([]*stat.ECDF, research.Dim())
			for k := 0; k < research.Dim(); k++ {
				e, err := stat.NewECDF(cols[u][s][k])
				if err != nil {
					return nil, fmt.Errorf("core: quantile design (u=%d,s=%d,k=%d): %w", u, s, k, err)
				}
				qp.ecdf[u][s][k] = e
			}
		}
	}
	return qp, nil
}

// RepairValue maps one feature value through the quantile repair. The fair
// target quantile at level p is the midpoint of the two group quantiles
// (the 1-D W2 barycentre's quantile function).
func (qp *QuantilePlan) RepairValue(u, s, k int, x float64) (float64, error) {
	if u != 0 && u != 1 {
		return 0, fmt.Errorf("core: invalid u label %d", u)
	}
	if s != 0 && s != 1 {
		return 0, fmt.Errorf("core: quantile repair requires a binary s label, got %d", s)
	}
	if k < 0 || k >= qp.dim {
		return 0, fmt.Errorf("core: feature %d out of range %d", k, qp.dim)
	}
	if math.IsNaN(x) {
		return 0, fmt.Errorf("core: feature %d value is NaN", k)
	}
	// Mid-rank within the own group: the average of the left and right CDF
	// limits handles ties gracefully (Feldman et al.'s rank convention).
	own := qp.ecdf[u][s][k]
	p := midRank(own, x)
	target := 0.5*qp.ecdf[u][0][k].Quantile(p) + 0.5*qp.ecdf[u][1][k].Quantile(p)
	return (1-qp.amount)*x + qp.amount*target, nil
}

// midRank evaluates (F(x⁻) + F(x)) / 2, the tie-splitting rank.
func midRank(e *stat.ECDF, x float64) float64 {
	right := e.CDF(x)
	// Left limit: cumulative mass strictly below x.
	support := e.Support()
	i := sort.SearchFloat64s(support, x)
	var left float64
	if i == 0 {
		left = 0
	} else {
		left = e.CDF(support[i-1])
	}
	if x > support[len(support)-1] {
		left = 1
	}
	if right < left {
		right = left
	}
	return 0.5 * (left + right)
}

// RepairRecord repairs every feature of one labelled record.
func (qp *QuantilePlan) RepairRecord(rec dataset.Record) (dataset.Record, error) {
	if rec.S == dataset.SUnknown {
		return dataset.Record{}, errors.New("core: record has no s label")
	}
	out := dataset.Record{X: make([]float64, len(rec.X)), S: rec.S, U: rec.U}
	for k := range rec.X {
		v, err := qp.RepairValue(rec.U, rec.S, k, rec.X[k])
		if err != nil {
			return dataset.Record{}, err
		}
		out.X[k] = v
	}
	return out, nil
}

// RepairTable repairs every record of a table in order.
func (qp *QuantilePlan) RepairTable(t *dataset.Table) (*dataset.Table, error) {
	if t == nil {
		return nil, errors.New("core: nil table")
	}
	if t.Dim() != qp.dim {
		return nil, fmt.Errorf("core: table dimension %d does not match plan %d", t.Dim(), qp.dim)
	}
	out, err := dataset.NewTable(t.Dim(), t.Names())
	if err != nil {
		return nil, err
	}
	for i := 0; i < t.Len(); i++ {
		rec, err := qp.RepairRecord(t.At(i))
		if err != nil {
			return nil, fmt.Errorf("core: record %d: %w", i, err)
		}
		if err := out.Append(rec); err != nil {
			return nil, err
		}
	}
	return out, nil
}
