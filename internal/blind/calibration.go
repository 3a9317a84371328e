package blind

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"otfair/internal/core"
	"otfair/internal/dataset"
)

// A Calibration is the serializable fitted state a blind deployment needs
// beyond the labelled plan itself: the QDA posterior Pr[s|x,u] (for the
// hard/draw/mix methods) and the pooled u-conditional marginals on the
// plan's support grids (for the group-blind pooled transport), plus the
// research-time confidence baseline that serving-side drift is measured
// against.
//
// Like a plan, a calibration is designed once on the research set and then
// deployed against unbounded archival torrents — so it gets the same
// artefact treatment: canonical JSON bytes, a 128-bit content fingerprint,
// and a content-addressed store namespace (planstore.CalibrationStore).
// A calibration is bound to the plan it was fitted against (PlanID): the
// pooled marginals live on that plan's support grids.
type Calibration struct {
	planID             string
	dim                int
	qda                *QDA
	pooled             [2][]pooledMarginal
	researchConfidence float64
	researchRecords    int
}

// pooledMarginal is the persisted Eq.-(10) mixture marginal for one
// (u, feature) cell: the pmf on the cell's support grid and the KDE
// bandwidth it was smoothed with. Degenerate cells need no transport and
// store nothing.
type pooledMarginal struct {
	pmf        []float64
	h          float64
	degenerate bool
}

// NewCalibration fits a blind calibration on a fully labelled research
// table for the given designed plan: the QDA posterior, the pooled
// marginal of every non-degenerate (u, feature) cell, and the mean MAP
// confidence of the posterior on the research records themselves.
func NewCalibration(plan *core.Plan, research *dataset.Table) (*Calibration, error) {
	if err := checkResearch(plan, research); err != nil {
		return nil, err
	}
	planID, err := plan.Fingerprint()
	if err != nil {
		return nil, err
	}
	qda, err := NewQDA(research)
	if err != nil {
		return nil, err
	}
	pooled, err := fitPooled(plan, research)
	if err != nil {
		return nil, err
	}
	cal := &Calibration{planID: planID, dim: plan.Dim, qda: qda, pooled: pooled}
	// Research-time confidence baseline: the mean MAP-posterior confidence
	// over the records the posterior was fitted on. Serving reports the
	// drift of the live mean against this number.
	sum := 0.0
	for _, rec := range research.Records() {
		gamma, err := qda.Posterior(rec)
		if err != nil {
			return nil, err
		}
		sum += math.Max(gamma, 1-gamma)
	}
	cal.researchConfidence = sum / float64(research.Len())
	cal.researchRecords = research.Len()
	return cal, nil
}

// checkResearch validates the research table a calibration (or part of
// one) is fitted on against the plan it serves.
func checkResearch(plan *core.Plan, research *dataset.Table) error {
	if plan == nil {
		return errors.New("blind: nil plan")
	}
	if research == nil || research.Len() == 0 {
		return errors.New("blind: empty research table")
	}
	if research.Dim() != plan.Dim {
		return fmt.Errorf("blind: research dimension %d does not match plan %d", research.Dim(), plan.Dim)
	}
	return nil
}

// PlanID is the content fingerprint of the plan the calibration was fitted
// against.
func (c *Calibration) PlanID() string { return c.planID }

// Dim is the feature dimension the calibration covers.
func (c *Calibration) Dim() int { return c.dim }

// ResearchConfidence is the mean MAP-posterior confidence on the research
// set at fit time — the baseline per-calibration drift is measured from.
func (c *Calibration) ResearchConfidence() float64 { return c.researchConfidence }

// ResearchRecords is the research-set size the calibration was fitted on.
func (c *Calibration) ResearchRecords() int { return c.researchRecords }

// PooledPlan turns the designed labelled plan into a fully group-blind
// plan: for every non-degenerate (u, feature) cell it replaces the two
// s-indexed plans with a single monotone transport from the calibration's
// pooled u-conditional mixture marginal
//
//	f(x|u) = Σ_s Pr̂[s|u]·f(x|s,u)           (Eq. 10)
//
// to the same barycentric target ν the labelled plan transports to.
// Applying it needs no s label at all — the Zhou–Marecek-style group-blind
// transport the paper's Section VI points to ([37]). The price is that the
// two s-conditionals are displaced by a common map, so the repair quenches
// less of the conditional dependence than a labelled or posterior-weighted
// one; the blind ablation experiment quantifies the gap.
//
// The returned plan shares the supports, barycenters and options of the
// input; both s slots of every cell hold the identical pooled transport, so
// core.Repairer machinery applies it unchanged whatever label a record
// carries. It is built from the persisted marginals alone, so a
// deserialized calibration rebuilds exactly the plan the fitted one does.
func (c *Calibration) PooledPlan(plan *core.Plan) (*core.Plan, error) {
	if plan == nil {
		return nil, errors.New("blind: nil plan")
	}
	if plan.Dim != c.dim {
		return nil, fmt.Errorf("blind: calibration dimension %d does not match plan %d", c.dim, plan.Dim)
	}
	out := &core.Plan{
		Dim:        plan.Dim,
		Names:      append([]string(nil), plan.Names...),
		Opts:       plan.Opts,
		GroupSizes: plan.GroupSizes,
	}
	for u := 0; u < 2; u++ {
		out.Cells[u] = make([]*core.Cell, plan.Dim)
		for k := 0; k < plan.Dim; k++ {
			cell := plan.Cell(u, k)
			pm := c.pooled[u][k]
			if cell.Degenerate {
				if !pm.degenerate {
					return nil, fmt.Errorf("blind: calibration expects non-degenerate cell (u=%d, k=%d)", u, k)
				}
				out.Cells[u][k] = cell
				continue
			}
			if pm.degenerate {
				return nil, fmt.Errorf("blind: calibration expects degenerate cell (u=%d, k=%d)", u, k)
			}
			pc, err := pooledCellFromPMF(cell, pm.pmf, pm.h)
			if err != nil {
				return nil, fmt.Errorf("blind: pooling (u=%d, k=%d): %w", u, k, err)
			}
			out.Cells[u][k] = pc
		}
	}
	return out, nil
}

// calibrationVersion is bumped when the serialized layout changes
// incompatibly.
const calibrationVersion = 1

type calibrationJSON struct {
	Version            int                `json:"version"`
	Plan               string             `json:"plan"`
	Dim                int                `json:"dim"`
	Prior              [2][2]float64      `json:"prior"`
	Components         [2][2]gaussianJSON `json:"components"`
	Pooled             [2][]pooledJSON    `json:"pooled"`
	ResearchConfidence float64            `json:"research_confidence"`
	ResearchRecords    int                `json:"research_records"`
}

type gaussianJSON struct {
	Mean    []float64 `json:"mean"`
	Chol    []float64 `json:"chol"`
	LogNorm float64   `json:"log_norm"`
}

type pooledJSON struct {
	PMF        []float64 `json:"pmf,omitempty"`
	H          float64   `json:"h,omitempty"`
	Degenerate bool      `json:"degenerate,omitempty"`
}

// WriteJSON serializes the calibration. Field order is fixed and slices are
// in fixed (u, s|k) order, so the bytes are a pure function of the fitted
// state — the property the content-addressed calibration store keys on.
func (c *Calibration) WriteJSON(w io.Writer) error {
	out := calibrationJSON{
		Version:            calibrationVersion,
		Plan:               c.planID,
		Dim:                c.dim,
		Prior:              c.qda.prior,
		ResearchConfidence: c.researchConfidence,
		ResearchRecords:    c.researchRecords,
	}
	for u := 0; u < 2; u++ {
		for s := 0; s < 2; s++ {
			g := c.qda.comp[u][s]
			out.Components[u][s] = gaussianJSON{Mean: g.mean, Chol: g.chol, LogNorm: g.logNorm}
		}
		out.Pooled[u] = make([]pooledJSON, len(c.pooled[u]))
		for k, pm := range c.pooled[u] {
			out.Pooled[u][k] = pooledJSON{PMF: pm.pmf, H: pm.h, Degenerate: pm.degenerate}
		}
	}
	return json.NewEncoder(w).Encode(out)
}

// MarshalCanonical returns the calibration's canonical serialized form —
// exactly the bytes WriteJSON emits.
func (c *Calibration) MarshalCanonical() ([]byte, error) {
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Fingerprint returns the 128-bit content hash of the canonical serialized
// calibration as a 32-character lowercase hex ID — the key the calibration
// store and the serving layer address calibrations by.
func (c *Calibration) Fingerprint() (string, error) {
	raw, err := c.MarshalCanonical()
	if err != nil {
		return "", err
	}
	return core.FingerprintBytes(raw), nil
}

// ReadCalibration deserializes a calibration written by WriteJSON,
// re-validating every component so a corrupted or hand-edited file fails
// loudly rather than soft-labelling archives with garbage.
func ReadCalibration(r io.Reader) (*Calibration, error) {
	var in calibrationJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("blind: decoding calibration: %w", err)
	}
	if in.Version != calibrationVersion {
		return nil, fmt.Errorf("blind: calibration version %d unsupported (want %d)", in.Version, calibrationVersion)
	}
	d := in.Dim
	if d <= 0 {
		return nil, errors.New("blind: calibration has non-positive dimension")
	}
	if in.Plan == "" {
		return nil, errors.New("blind: calibration carries no plan fingerprint")
	}
	qda := &QDA{dim: d, prior: in.Prior}
	for u := 0; u < 2; u++ {
		p0, p1 := in.Prior[u][0], in.Prior[u][1]
		if p0 < 0 || p1 < 0 || math.Abs(p0+p1-1) > 1e-9 {
			return nil, fmt.Errorf("blind: calibration priors for u=%d are not a distribution: %v, %v", u, p0, p1)
		}
		for s := 0; s < 2; s++ {
			g := in.Components[u][s]
			if len(g.Mean) != d {
				return nil, fmt.Errorf("blind: component (u=%d, s=%d) mean has %d entries, want %d", u, s, len(g.Mean), d)
			}
			if len(g.Chol) != d*(d+1)/2 {
				return nil, fmt.Errorf("blind: component (u=%d, s=%d) factor has %d entries, want %d", u, s, len(g.Chol), d*(d+1)/2)
			}
			for i := 0; i < d; i++ {
				if diag := g.Chol[i*(i+1)/2+i]; !(diag > 0) {
					return nil, fmt.Errorf("blind: component (u=%d, s=%d) factor is not positive definite", u, s)
				}
			}
			if math.IsNaN(g.LogNorm) || math.IsInf(g.LogNorm, 0) {
				return nil, fmt.Errorf("blind: component (u=%d, s=%d) has non-finite normalizer", u, s)
			}
			qda.comp[u][s] = &gaussian{mean: g.Mean, chol: g.Chol, logNorm: g.LogNorm}
		}
	}
	cal := &Calibration{
		planID:             in.Plan,
		dim:                d,
		qda:                qda,
		researchConfidence: in.ResearchConfidence,
		researchRecords:    in.ResearchRecords,
	}
	for u := 0; u < 2; u++ {
		if len(in.Pooled[u]) != d {
			return nil, fmt.Errorf("blind: calibration u=%d has %d pooled marginals, want %d", u, len(in.Pooled[u]), d)
		}
		cal.pooled[u] = make([]pooledMarginal, d)
		for k, pj := range in.Pooled[u] {
			if pj.Degenerate {
				if len(pj.PMF) != 0 {
					return nil, fmt.Errorf("blind: degenerate pooled cell (u=%d, k=%d) carries a pmf", u, k)
				}
				cal.pooled[u][k] = pooledMarginal{degenerate: true}
				continue
			}
			if len(pj.PMF) == 0 {
				return nil, fmt.Errorf("blind: pooled cell (u=%d, k=%d) has no pmf", u, k)
			}
			total := 0.0
			for _, p := range pj.PMF {
				if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
					return nil, fmt.Errorf("blind: pooled cell (u=%d, k=%d) pmf is not a distribution", u, k)
				}
				total += p
			}
			if total <= 0 {
				return nil, fmt.Errorf("blind: pooled cell (u=%d, k=%d) pmf carries no mass", u, k)
			}
			if !(pj.H >= 0) {
				return nil, fmt.Errorf("blind: pooled cell (u=%d, k=%d) has invalid bandwidth %v", u, k, pj.H)
			}
			cal.pooled[u][k] = pooledMarginal{pmf: pj.PMF, h: pj.H}
		}
	}
	return cal, nil
}
