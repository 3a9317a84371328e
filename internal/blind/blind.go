// Package blind repairs archival data whose protected attribute s is
// unobserved — the priority future work named in Section VI of the paper
// ("a priority of our future work will be to extend our distributional
// OT-repair methods to s|u-unlabelled X_A", refs [37]–[39]).
//
// Algorithm 2 is s-indexed: it picks the plan π*_{u,s,k} by the record's s
// label. When archives carry no s, four deployment strategies are offered,
// ordered from most to least label information used:
//
//   - MethodHard:   impute the MAP label ŝ = argmax_s Pr[s|x,u] and run the
//     labelled repair — the paper's own suggestion (Section IV, Eq. 10).
//   - MethodDraw:   draw ŝ ~ Bernoulli(Pr[s=1|x,u]) once per record. The
//     repaired population then mixes the two conditional repair kernels with
//     exactly the posterior weights, removing MethodHard's decision-boundary
//     bias at the cost of extra randomness.
//   - MethodMix:    redraw ŝ independently for every feature — the full
//     posterior mixture of the per-feature repair kernels.
//   - MethodPooled: ignore s entirely and transport the pooled u-marginal
//     (Eq. 10's mixture) to the barycentric target — group-blind transport
//     in the sense of [37]. Needs no posterior model at all.
//
// The posterior for the first three methods is a QDA fitted on the
// labelled research set (supervised, streaming-friendly), evaluated in
// blocks by BatchPosterior.
//
// Every repairer is built the one way the serving layer builds it: a
// Calibration (the fitted posterior and pooled marginals) bound to the
// plan's samplers by NewCalibrated. New fits the parts of that calibration
// its method needs from the research table.
package blind

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/rng"
)

// Method selects how the missing s label is handled at repair time.
type Method int

const (
	// MethodHard imputes the MAP label and applies the labelled repair.
	MethodHard Method = iota
	// MethodDraw draws one label per record from the posterior.
	MethodDraw
	// MethodMix draws an independent label per feature from the posterior.
	MethodMix
	// MethodPooled applies the single group-blind pooled transport.
	MethodPooled
)

// String names the method for flags and reports.
func (m Method) String() string {
	switch m {
	case MethodHard:
		return "hard"
	case MethodDraw:
		return "draw"
	case MethodMix:
		return "mix"
	case MethodPooled:
		return "pooled"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// ParseMethod resolves a method name.
func ParseMethod(name string) (Method, error) {
	switch name {
	case "hard", "":
		return MethodHard, nil
	case "draw":
		return MethodDraw, nil
	case "mix":
		return MethodMix, nil
	case "pooled", "blind":
		return MethodPooled, nil
	default:
		return 0, fmt.Errorf("blind: unknown method %q", name)
	}
}

// Options configures a blind Repairer.
type Options struct {
	// Method selects the label-handling strategy (default MethodHard).
	Method Method
	// Repair is passed through to the underlying Algorithm-2 repairer.
	Repair core.RepairOptions
}

// Stats accumulates deployment counters beyond core.Diagnostics.
type Stats struct {
	// Records is the number of records repaired.
	Records int64
	// LabelsUsed counts records whose observed s label was trusted
	// directly (only records arriving with a label, never for
	// MethodPooled).
	LabelsUsed int64
	// Imputed counts records repaired under an estimated label.
	Imputed int64
	// ConfidenceSum accumulates max(γ, 1−γ) over imputed records; divide
	// by Imputed for the mean posterior confidence.
	ConfidenceSum float64
	// AmbiguityBins histograms the posterior ambiguity 1 − max(γ, 1−γ) of
	// imputed records in ten uniform bins on [0, 0.5]: bin 0 holds records
	// the posterior is nearly certain about, bin 9 records it finds
	// maximally ambiguous. The serving layer exposes it per calibration.
	AmbiguityBins [AmbiguityBinCount]int64
}

// AmbiguityBinCount is the resolution of Stats.AmbiguityBins.
const AmbiguityBinCount = 10

// Merge folds another counter set into s; the serving engine aggregates
// per-shard stats with it.
func (s *Stats) Merge(o Stats) {
	s.Records += o.Records
	s.LabelsUsed += o.LabelsUsed
	s.Imputed += o.Imputed
	s.ConfidenceSum += o.ConfidenceSum
	for i := range s.AmbiguityBins {
		s.AmbiguityBins[i] += o.AmbiguityBins[i]
	}
}

// MeanConfidence is the average MAP-posterior confidence over imputed
// records, zero when nothing was imputed.
func (s Stats) MeanConfidence() float64 {
	if s.Imputed == 0 {
		return 0
	}
	return s.ConfidenceSum / float64(s.Imputed)
}

// Repairer repairs records with unknown s. It is not safe for concurrent
// use: it owns an RNG stream, like core.Repairer.
type Repairer struct {
	method Method
	inner  *core.Repairer
	r      *rng.RNG
	stats  Stats
	dim    int
	// bp is the batched evaluator over the calibration's QDA posterior
	// (nil on a labelled-serving repairer and for MethodPooled). Every
	// posterior runs through it — whole blocks in RepairSpan, single
	// records in RepairRecord — bit-identical to QDA.Posterior.
	bp *BatchPosterior
}

// New builds a blind repairer from a designed labelled plan and the research
// table the plan was designed on. It fits the part of a Calibration its
// method needs — the QDA posterior (hard/draw/mix, which need every (u, s)
// group labelled) or the pooled marginals (MethodPooled, which reads no s
// label) — and binds it through NewCalibrated, the serving layer's path.
func New(plan *core.Plan, research *dataset.Table, r *rng.RNG, opts Options) (*Repairer, error) {
	if err := checkResearch(plan, research); err != nil {
		return nil, err
	}
	if r == nil {
		return nil, errors.New("blind: nil rng")
	}
	// This calibration never leaves the repairer, so it carries neither a
	// plan id nor a confidence baseline.
	cal := &Calibration{dim: plan.Dim}
	var (
		smp Samplers
		err error
	)
	switch opts.Method {
	case MethodHard, MethodDraw, MethodMix:
		if cal.qda, err = NewQDA(research); err != nil {
			return nil, err
		}
		smp.Labelled, err = core.NewPlanSampler(plan)
	case MethodPooled:
		if cal.pooled, err = fitPooled(plan, research); err != nil {
			return nil, err
		}
		var pooled *core.Plan
		if pooled, err = cal.PooledPlan(plan); err != nil {
			return nil, err
		}
		smp.Pooled, err = core.NewPlanSampler(pooled)
	}
	if err != nil {
		return nil, err
	}
	return NewCalibrated(cal, smp, r, opts)
}

// Samplers bundles the precomputed draw state a calibrated blind repairer
// runs on: the labelled plan's alias tables (hard/draw/mix — both s-rows of
// every cell, mixed at draw time by the record's posterior) and the pooled
// plan's (MethodPooled). Both are immutable and shared across shards.
type Samplers struct {
	Labelled *core.PlanSampler
	Pooled   *core.PlanSampler
}

// ErrNoPosterior marks an unlabelled record reaching a repairer that has
// no posterior to impute its s label with — a labelled-serving repairer
// built by NewCalibrated without a calibration.
var ErrNoPosterior = errors.New("blind: record has no s label and no posterior is bound (repair it with a calibration)")

// NewCalibrated builds a blind repairer from a fitted calibration and
// precomputed samplers instead of the research table — the serving-layer
// constructor. The RNG consumption per record is identical to New's, so a
// calibrated repairer is byte-identical to a research-fitted one at the
// same seed when the calibration was fitted on the same research table.
// The method's sampler must be present in smp.
//
// A nil calibration is labelled serving: records carrying an observed s
// are repaired by the labelled sampler with exactly the draws
// core.Repairer.RepairRecord makes, while an unlabelled record fails with
// ErrNoPosterior.
func NewCalibrated(cal *Calibration, smp Samplers, r *rng.RNG, opts Options) (*Repairer, error) {
	if r == nil {
		return nil, errors.New("blind: nil rng")
	}
	if cal == nil {
		if smp.Labelled == nil {
			return nil, errors.New("blind: nil calibration and labelled sampler")
		}
		return newRepairer(smp.Labelled.Plan().Dim, smp, nil, r, opts)
	}
	return newRepairer(cal.dim, smp, cal.qda, r, opts)
}

// newRepairer binds the method's sampler from smp — which must match dim —
// to r. qda, when non-nil, is the posterior the hard/draw/mix methods
// impute with.
func newRepairer(dim int, smp Samplers, qda *QDA, r *rng.RNG, opts Options) (*Repairer, error) {
	rp := &Repairer{method: opts.Method, r: r, dim: dim}
	var sampler *core.PlanSampler
	switch opts.Method {
	case MethodHard, MethodDraw, MethodMix:
		if smp.Labelled == nil {
			return nil, errors.New("blind: method needs the labelled sampler")
		}
		sampler = smp.Labelled
		if qda != nil {
			rp.bp = qda.Batch()
		}
	case MethodPooled:
		if smp.Pooled == nil {
			return nil, errors.New("blind: pooled method needs the pooled sampler")
		}
		sampler = smp.Pooled
	default:
		return nil, fmt.Errorf("blind: unknown method %v", opts.Method)
	}
	if sampler.Plan().Dim != dim {
		return nil, fmt.Errorf("blind: sampler dimension %d does not match calibration %d", sampler.Plan().Dim, dim)
	}
	inner, err := core.NewRepairerShared(sampler, r, opts.Repair)
	if err != nil {
		return nil, err
	}
	rp.inner = inner
	return rp, nil
}

// Stats returns the counters accumulated so far.
func (rp *Repairer) Stats() Stats { return rp.stats }

// Diagnostics exposes the underlying Algorithm-2 counters.
func (rp *Repairer) Diagnostics() core.Diagnostics { return rp.inner.Diagnostics() }

// RepairRecord repairs one record whose S may be dataset.SUnknown. The
// output record keeps the input's S field: the repair never pretends an
// imputed label is an observation.
func (rp *Repairer) RepairRecord(rec dataset.Record) (dataset.Record, error) {
	done, err := rp.pickKnown(rec)
	if err == nil && !done {
		if rp.bp == nil {
			return dataset.Record{}, ErrNoPosterior
		}
		// A length-1 batch is bit-identical to the scalar QDA posterior
		// and skips its per-record prior logs.
		var gamma [1]float64
		if err = rp.bp.Posteriors([]dataset.Record{rec}, gamma[:]); err != nil {
			err = fmt.Errorf("blind: posterior: %w", err)
		} else {
			err = rp.pickImputed(rec, gamma[0])
		}
	}
	if err != nil {
		rp.inner.Resolve(nil)
		return dataset.Record{}, err
	}
	out := dataset.Record{X: make([]float64, len(rec.X)), S: rec.S, U: rec.U}
	rp.inner.Resolve(out.X)
	return out, nil
}

// repairBatch repairs a block of records under precomputed posteriors
// (gammas[i] pairs with recs[i] and is ignored by records that never
// consult a posterior; with no posterior bound an unlabelled record fails
// with ErrNoPosterior), writing record i's repair to out[i], and returns
// how many leading records it completed. It applies RepairRecord's exact
// per-record sequence with the posterior supplied instead of evaluated —
// same RNG consumption, same stats accumulation order, so when gammas[i]
// is what the repairer's own posterior returns the outputs are
// byte-identical — but picks the whole block before resolving its draws
// in one pass, and carves every output feature vector from one backing
// allocation, which is what keeps the span loop off the per-record
// allocator. On error out[:n] is complete and the failed record's draws
// are dropped. base offsets the record indices in error messages, so a
// caller feeding spans of a larger stream reports absolute positions.
func (rp *Repairer) repairBatch(base int, recs []dataset.Record, gammas []float64, out []dataset.Record) (int, error) {
	d := rp.dim
	xs := make([]float64, len(recs)*d)
	rp.inner.Reserve(len(xs))
	for i, rec := range recs {
		done, err := rp.pickKnown(rec)
		if err == nil && !done {
			if rp.bp == nil {
				err = ErrNoPosterior
			} else {
				err = rp.pickImputed(rec, gammas[i])
			}
		}
		if err != nil {
			rp.inner.Resolve(xs[:i*d])
			return i, fmt.Errorf("blind: record %d: %w", base+i, err)
		}
		out[i] = dataset.Record{X: xs[i*d : (i+1)*d : (i+1)*d], S: rec.S, U: rec.U}
	}
	rp.inner.Resolve(xs)
	return len(recs), nil
}

// pickKnown handles the posterior-free cases — validation, the pooled
// transport, and records arriving with an observed label — picking the
// record's draws (see core.Repairer.Pick). done reports that the record
// is fully picked; otherwise the caller supplies a posterior and finishes
// with pickImputed.
func (rp *Repairer) pickKnown(rec dataset.Record) (done bool, err error) {
	if rec.U != 0 && rec.U != 1 {
		return false, fmt.Errorf("blind: invalid u label %d", rec.U)
	}
	if len(rec.X) != rp.dim {
		return false, fmt.Errorf("blind: record has %d features, want %d", len(rec.X), rp.dim)
	}
	rp.stats.Records++
	switch {
	case rp.method == MethodPooled:
		// The pooled plan is identical in both s slots; apply as s = 0.
		return true, rp.transport(rec, 0)
	case rec.S != dataset.SUnknown:
		// Hard / draw / mix: a record that arrives with an observed label
		// needs no imputation under any posterior method.
		rp.stats.LabelsUsed++
		return true, rp.transport(rec, rec.S)
	}
	return false, nil
}

// transport picks every feature of rec under label s.
func (rp *Repairer) transport(rec dataset.Record, s int) error {
	for k, x := range rec.X {
		if err := rp.inner.Pick(rec.U, s, k, x); err != nil {
			return err
		}
	}
	return nil
}

// pickImputed picks an unlabelled record's draws under posterior gamma,
// accounting the imputation telemetry exactly like the inline path always
// did.
func (rp *Repairer) pickImputed(rec dataset.Record, gamma float64) error {
	// NaN passes both comparisons below and would index the ambiguity
	// histogram with int(NaN); reject it explicitly.
	if math.IsNaN(gamma) || gamma < 0 || gamma > 1 {
		return fmt.Errorf("blind: posterior %v outside [0,1]", gamma)
	}
	rp.stats.Imputed++
	conf := gamma
	if gamma < 0.5 {
		conf = 1 - gamma
	}
	rp.stats.ConfidenceSum += conf
	// Ambiguity 1 − conf lies in [0, 0.5]; scale to the bin count.
	bin := int((1 - conf) * 2 * AmbiguityBinCount)
	if bin >= AmbiguityBinCount {
		bin = AmbiguityBinCount - 1
	}
	rp.stats.AmbiguityBins[bin]++

	if rp.method == MethodMix {
		// One independent label draw per feature.
		for k, x := range rec.X {
			s := 0
			if rp.r.Bernoulli(gamma) {
				s = 1
			}
			if err := rp.inner.Pick(rec.U, s, k, x); err != nil {
				return err
			}
		}
		return nil
	}
	// Hard takes the MAP label; draw draws one label for the record.
	s := 0
	if (rp.method == MethodHard && gamma >= 0.5) || (rp.method == MethodDraw && rp.r.Bernoulli(gamma)) {
		s = 1
	}
	return rp.transport(rec, s)
}

// blindSpan is the block size of RepairSpan — the same block
// BatchPosterior uses, so the gathered right-hand sides stay
// cache-resident.
const blindSpan = 1024

// RepairSpan repairs recs into out (equal lengths), writing record i's
// repair to out[i], and returns how many leading records it completed —
// on error, out[:n] holds the repairs of recs[:n], each byte-identical to
// an uninterrupted run. It is the span body of RepairTable and of every
// serving-engine path. It works in blocks of blindSpan records, polling
// ctx between blocks: each block's posteriors come from one BatchPosterior
// call and its records from repairBatch, which is byte-identical to the
// per-record sequence of RepairRecord (identical RNG consumption, stats
// order, error text and partial progress). base offsets the record
// indices in error messages, so a caller feeding spans of a larger input
// reports absolute positions.
func (rp *Repairer) RepairSpan(ctx context.Context, base int, recs, out []dataset.Record) (int, error) {
	if len(out) != len(recs) {
		return 0, errors.New("blind: span length mismatch")
	}
	var gammas [blindSpan]float64
	for lo := 0; lo < len(recs); lo += blindSpan {
		if err := ctx.Err(); err != nil {
			return lo, err
		}
		hi := min(lo+blindSpan, len(recs))
		block, g := recs[lo:hi], gammas[:hi-lo]
		if err := rp.blockPosteriors(block, g); err != nil {
			return lo, fmt.Errorf("blind: posterior (span at %d): %w", base+lo, err)
		}
		if n, err := rp.repairBatch(base+lo, block, g, out[lo:hi]); err != nil {
			return lo + n, err
		}
	}
	return len(recs), nil
}

// blockPosteriors fills gammas[i] for every unlabelled record of a block
// before its first invalid record (repairBatch stops there) through the
// batched QDA evaluator; with no posterior bound it fills nothing, and
// repairBatch fails the first unlabelled record with ErrNoPosterior.
// Labelled slots (and every slot, for the pooled method) are not written —
// the reused buffer may carry stale values there — and are ignored
// downstream: repairBatch never consults gamma for a record that needs no
// posterior.
func (rp *Repairer) blockPosteriors(recs []dataset.Record, gammas []float64) error {
	// Like RepairRecord, only unlabelled records consult the posterior:
	// a mostly-labelled archive must not pay for discarded soft labels.
	unl := 0
	for i, rec := range recs {
		if (rec.U != 0 && rec.U != 1) || len(rec.X) != rp.dim {
			recs, gammas = recs[:i], gammas[:i]
			break
		}
		if rec.S == dataset.SUnknown {
			unl++
		}
	}
	switch {
	case unl == 0 || rp.method == MethodPooled || rp.bp == nil:
		return nil
	case unl == len(recs):
		return rp.bp.Posteriors(recs, gammas)
	}
	// Mixed blocks gather the unlabelled subset and scatter the results.
	sub := make([]dataset.Record, 0, unl)
	idx := make([]int, 0, unl)
	for i, rec := range recs {
		if rec.S == dataset.SUnknown {
			sub = append(sub, rec)
			idx = append(idx, i)
		}
	}
	sg := make([]float64, unl)
	if err := rp.bp.Posteriors(sub, sg); err != nil {
		return err
	}
	for j, i := range idx {
		gammas[i] = sg[j]
	}
	return nil
}

// RepairTable repairs every record of a table in order; records may be
// unlabelled. Cardinality and the (known) labels are preserved. The table
// runs through RepairSpan, the same span body the serving engine's shards
// use.
func (rp *Repairer) RepairTable(t *dataset.Table) (*dataset.Table, error) {
	if t == nil {
		return nil, errors.New("blind: nil table")
	}
	if t.Dim() != rp.dim {
		return nil, fmt.Errorf("blind: table dimension %d does not match plan %d", t.Dim(), rp.dim)
	}
	out, err := dataset.NewTable(t.Dim(), t.Names())
	if err != nil {
		return nil, err
	}
	repaired := make([]dataset.Record, t.Len())
	if _, err := rp.RepairSpan(context.Background(), 0, t.Records(), repaired); err != nil {
		return nil, err
	}
	if err := out.AppendAll(repaired); err != nil {
		return nil, err
	}
	return out, nil
}

// RepairStream consumes a record stream — possibly unlabelled — and emits
// repaired records to sink with O(1) memory, mirroring
// core.Repairer.RepairStream for the torrent deployment mode. Each record
// is repaired and sunk as soon as it arrives — the stream path never
// buffers, because a live torrent's downstream must not wait on a span
// filling up; whole-span batching is RepairTable's job.
func (rp *Repairer) RepairStream(in dataset.Stream, sink func(dataset.Record) error) (int, error) {
	if in.Dim() != rp.dim {
		return 0, fmt.Errorf("blind: stream dimension %d does not match plan %d", in.Dim(), rp.dim)
	}
	n := 0
	for {
		rec, err := in.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		repaired, err := rp.RepairRecord(rec)
		if err != nil {
			return n, fmt.Errorf("blind: stream record %d: %w", n, err)
		}
		if err := sink(repaired); err != nil {
			return n, err
		}
		n++
	}
}
