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
// The posterior for the first three methods defaults to a QDA fitted on the
// labelled research set (supervised, streaming-friendly); any other source —
// e.g. the unsupervised archive-fitted mixture.LabelEstimator.SPosterior —
// can be plugged in through Options.Posterior.
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

// PosteriorFunc supplies Pr[s = 1 | x, u] for one record.
type PosteriorFunc func(dataset.Record) (float64, error)

// Options configures a blind Repairer.
type Options struct {
	// Method selects the label-handling strategy (default MethodHard).
	Method Method
	// Posterior overrides the posterior source for the hard/draw/mix
	// methods. Nil means "fit a QDA on the research table".
	Posterior PosteriorFunc
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
	method    Method
	posterior PosteriorFunc
	inner     *core.Repairer
	r         *rng.RNG
	stats     Stats
	dim       int
	// bp is the batched evaluator over the default QDA posterior, set only
	// when the posterior was NOT overridden through Options.Posterior. When
	// present, every posterior runs through the vec-batched fast path —
	// whole blocks in RepairSpan, single records in RepairRecord — which
	// is bit-identical to the scalar posterior, so outputs are
	// byte-identical; a custom posterior may be stateful, so it always
	// runs record by record.
	bp *BatchPosterior
}

// New builds a blind repairer from a designed labelled plan and the research
// table the plan was designed on. The research table is needed to fit the
// default QDA posterior (hard/draw/mix) or the pooled marginals
// (MethodPooled).
func New(plan *core.Plan, research *dataset.Table, r *rng.RNG, opts Options) (*Repairer, error) {
	if plan == nil {
		return nil, errors.New("blind: nil plan")
	}
	if r == nil {
		return nil, errors.New("blind: nil rng")
	}
	var (
		smp Samplers
		bp  *BatchPosterior
		err error
	)
	switch opts.Method {
	case MethodHard, MethodDraw, MethodMix:
		if opts.Posterior == nil {
			qda, err := NewQDA(research)
			if err != nil {
				return nil, err
			}
			opts.Posterior, bp = qda.Posterior, qda.Batch()
		}
		smp.Labelled, err = core.NewPlanSampler(plan)
	case MethodPooled:
		pooled, perr := PooledPlan(plan, research)
		if perr != nil {
			return nil, perr
		}
		smp.Pooled, err = core.NewPlanSampler(pooled)
	}
	if err != nil {
		return nil, err
	}
	return newRepairer(plan.Dim, smp, bp, r, opts)
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
// Options.Posterior still overrides the calibration's QDA when set; the
// method's sampler must be present in smp.
//
// A nil calibration is labelled serving: records carrying an observed s
// are repaired by the labelled sampler with exactly the draws
// core.Repairer.RepairRecord makes, while an unlabelled record (absent an
// Options.Posterior) fails with ErrNoPosterior.
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
	var bp *BatchPosterior
	if opts.Posterior == nil {
		opts.Posterior, bp = cal.Posterior, cal.QDA().Batch()
	}
	return newRepairer(cal.dim, smp, bp, r, opts)
}

// newRepairer binds the method's sampler from smp — which must match dim —
// to r. bp, when non-nil, is the batched evaluator of opts.Posterior.
func newRepairer(dim int, smp Samplers, bp *BatchPosterior, r *rng.RNG, opts Options) (*Repairer, error) {
	rp := &Repairer{method: opts.Method, r: r, dim: dim}
	var sampler *core.PlanSampler
	switch opts.Method {
	case MethodHard, MethodDraw, MethodMix:
		if smp.Labelled == nil {
			return nil, errors.New("blind: method needs the labelled sampler")
		}
		sampler, rp.posterior, rp.bp = smp.Labelled, opts.Posterior, bp
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
	out, done, err := rp.repairKnown(rec, nil)
	if done || err != nil {
		return out, err
	}
	var gamma [1]float64
	switch {
	case rp.bp != nil:
		// A length-1 batch is bit-identical to the scalar QDA posterior
		// and skips its per-record prior logs.
		err = rp.bp.Posteriors([]dataset.Record{rec}, gamma[:])
	case rp.posterior != nil:
		gamma[0], err = rp.posterior(rec)
	default:
		return dataset.Record{}, ErrNoPosterior
	}
	if err != nil {
		return dataset.Record{}, fmt.Errorf("blind: posterior: %w", err)
	}
	return rp.repairImputed(rec, out, gamma[0])
}

// RepairRecordPosterior is RepairRecord with the posterior γ = Pr[s=1|x,u]
// supplied by the caller instead of evaluated here — the serving fast path,
// where BatchPosterior computes whole chunks of posteriors in one pass. It
// consumes the repairer's RNG stream exactly like RepairRecord, so when
// gamma equals what the repairer's own posterior would return the two are
// byte-identical. Records that never consult a posterior — an observed s,
// or the pooled method — ignore gamma entirely and behave exactly like
// RepairRecord.
func (rp *Repairer) RepairRecordPosterior(rec dataset.Record, gamma float64) (dataset.Record, error) {
	out, done, err := rp.repairKnown(rec, nil)
	if done || err != nil {
		return out, err
	}
	return rp.repairImputed(rec, out, gamma)
}

// RepairBatch repairs a span of records under precomputed posteriors
// (gammas[i] pairs with recs[i] and is ignored by records that never
// consult a posterior), writing record i's repair to out[i]. It applies
// RepairRecordPosterior's exact per-record sequence — same RNG
// consumption, same stats accumulation order, so outputs are
// byte-identical — but carves every output feature vector from one backing
// allocation, which is what keeps the serving engines' span loop off the
// per-record allocator. base offsets the record indices in error messages,
// so a caller feeding spans of a larger stream reports absolute positions.
func (rp *Repairer) RepairBatch(base int, recs []dataset.Record, gammas []float64, out []dataset.Record) error {
	if len(gammas) != len(recs) || len(out) != len(recs) {
		return errors.New("blind: batch length mismatch")
	}
	d := rp.dim
	xs := make([]float64, len(recs)*d)
	for i, rec := range recs {
		o, done, err := rp.repairKnown(rec, xs[i*d:(i+1)*d:(i+1)*d])
		if err != nil {
			return fmt.Errorf("blind: record %d: %w", base+i, err)
		}
		if !done {
			if o, err = rp.repairImputed(rec, o, gammas[i]); err != nil {
				return fmt.Errorf("blind: record %d: %w", base+i, err)
			}
		}
		out[i] = o
	}
	return nil
}

// repairKnown handles the posterior-free cases — validation, the pooled
// transport, and records arriving with an observed label. done reports
// that out is complete; otherwise the caller supplies a posterior and
// finishes with repairImputed. x, when non-nil, is the caller-provided
// backing for the output features (the batch path's bulk allocation).
func (rp *Repairer) repairKnown(rec dataset.Record, x []float64) (out dataset.Record, done bool, err error) {
	if rec.U != 0 && rec.U != 1 {
		return dataset.Record{}, false, fmt.Errorf("blind: invalid u label %d", rec.U)
	}
	if len(rec.X) != rp.dim {
		return dataset.Record{}, false, fmt.Errorf("blind: record has %d features, want %d", len(rec.X), rp.dim)
	}
	if x == nil {
		x = make([]float64, len(rec.X))
	}
	out = dataset.Record{X: x, S: rec.S, U: rec.U}
	rp.stats.Records++
	switch {
	case rp.method == MethodPooled:
		// The pooled plan is identical in both s slots; apply as s = 0.
		err = rp.transport(rec, 0, out)
	case rec.S != dataset.SUnknown:
		// Hard / draw / mix: a record that arrives with an observed label
		// needs no imputation under any posterior method.
		rp.stats.LabelsUsed++
		err = rp.transport(rec, rec.S, out)
	default:
		return out, false, nil
	}
	if err != nil {
		return dataset.Record{}, true, err
	}
	return out, true, nil
}

// transport repairs every feature of rec under label s into out.X.
func (rp *Repairer) transport(rec dataset.Record, s int, out dataset.Record) error {
	for k, x := range rec.X {
		v, err := rp.inner.RepairValue(rec.U, s, k, x)
		if err != nil {
			return err
		}
		out.X[k] = v
	}
	return nil
}

// repairImputed finishes an unlabelled record under posterior gamma,
// accounting the imputation telemetry exactly like the inline path always
// did.
func (rp *Repairer) repairImputed(rec, out dataset.Record, gamma float64) (dataset.Record, error) {
	// NaN passes both comparisons below and would index the ambiguity
	// histogram with int(NaN); reject it explicitly.
	if math.IsNaN(gamma) || gamma < 0 || gamma > 1 {
		return dataset.Record{}, fmt.Errorf("blind: posterior %v outside [0,1]", gamma)
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
			v, err := rp.inner.RepairValue(rec.U, s, k, x)
			if err != nil {
				return dataset.Record{}, err
			}
			out.X[k] = v
		}
		return out, nil
	}
	// Hard takes the MAP label; draw draws one label for the record.
	s := 0
	if (rp.method == MethodHard && gamma >= 0.5) || (rp.method == MethodDraw && rp.r.Bernoulli(gamma)) {
		s = 1
	}
	if err := rp.transport(rec, s, out); err != nil {
		return dataset.Record{}, err
	}
	return out, nil
}

// blindSpan is the block size of RepairSpan — the same block
// BatchPosterior uses, so the gathered right-hand sides stay
// cache-resident.
const blindSpan = 1024

// RepairSpan repairs recs into out (equal lengths), writing record i's
// repair to out[i] — the span body of RepairTable and of the serving
// engine's shards. It works in blocks of blindSpan records, polling ctx
// between blocks. A block runs through BatchPosterior + RepairBatch when
// it can: every record valid, and the block's unlabelled records (if any)
// covered by the default QDA posterior. That path is byte-identical to
// the per-record sequence (identical RNG consumption and stats order).
// Any other block — a custom posterior, no posterior at all, or an
// invalid record — takes the scalar loop, so error positions and partial
// progress match RepairRecord exactly. base offsets the record indices in
// error messages, so a caller feeding spans of a larger input reports
// absolute positions.
func (rp *Repairer) RepairSpan(ctx context.Context, base int, recs, out []dataset.Record) error {
	if len(out) != len(recs) {
		return errors.New("blind: span length mismatch")
	}
	var gammas [blindSpan]float64
	for lo := 0; lo < len(recs); lo += blindSpan {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(lo+blindSpan, len(recs))
		block, g := recs[lo:hi], gammas[:hi-lo]
		batched, err := rp.blockPosteriors(block, g)
		if err != nil {
			return fmt.Errorf("blind: posterior (span at %d): %w", base+lo, err)
		}
		if batched {
			if err := rp.RepairBatch(base+lo, block, g, out[lo:hi]); err != nil {
				return err
			}
			continue
		}
		for i, rec := range block {
			o, err := rp.RepairRecord(rec)
			if err != nil {
				return fmt.Errorf("blind: record %d: %w", base+lo+i, err)
			}
			out[lo+i] = o
		}
	}
	return nil
}

// blockPosteriors fills gammas[i] for every unlabelled record of a block
// through the batched QDA evaluator and reports whether the block may run
// through RepairBatch. Labelled slots (and every slot, for the pooled
// method) are not written — the reused buffer may carry stale values
// there — and are ignored downstream: RepairBatch never consults gamma for
// a record that needs no posterior.
func (rp *Repairer) blockPosteriors(recs []dataset.Record, gammas []float64) (bool, error) {
	// Like the scalar path, only unlabelled records consult the posterior:
	// a mostly-labelled archive must not pay for discarded soft labels.
	unl := 0
	for _, rec := range recs {
		if (rec.U != 0 && rec.U != 1) || len(rec.X) != rp.dim {
			return false, nil
		}
		if rec.S == dataset.SUnknown {
			unl++
		}
	}
	switch {
	case unl == 0 || rp.method == MethodPooled:
		return true, nil
	case rp.bp == nil:
		return false, nil
	case unl == len(recs):
		return true, rp.bp.Posteriors(recs, gammas)
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
		return false, err
	}
	for j, i := range idx {
		gammas[i] = sg[j]
	}
	return true, nil
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
	if err := rp.RepairSpan(context.Background(), 0, t.Records(), repaired); err != nil {
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
