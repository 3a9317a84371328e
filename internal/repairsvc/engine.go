// Package repairsvc is the serving layer of the repository: a batched
// implementation of Algorithm 2 (the Engine) and an HTTP front end (the
// Server) that together turn a once-designed repair plan into a
// long-running archival-repair service — the deployment mode the paper's
// design/apply split exists for.
//
// One Engine type serves both deployment modes. NewEngine binds a plan for
// labelled traffic, resolving every (u, s, feature, support-row)
// multinomial of the plan into an alias table once (core.PlanSampler).
// WithCalibration derives an engine for s-unlabelled archives (the paper's
// Section VI case) that shares those tables and adds the calibration's
// posterior Pr[s|x,u] and the pooled plan's sampler. A record carrying an
// observed s consumes its RNG stream exactly as
// core.Repairer.RepairRecord does, and on a labelled engine an unlabelled
// record fails with blind.ErrNoPosterior. Every path repairs through
// blind.Repairer.RepairSpan. Determinism contract:
//
//   - A stream is repaired serially, one span of originals and repairs at
//     a time, by one repairer on the caller's RNG stream — Algorithm 2's
//     sequential application to the off-sample data. Its output is
//     byte-identical to core.Repairer (labelled) or blind.Repairer
//     (calibrated) RepairStream with the same seed and method, on every
//     host — the property the serve-path equivalence tests pin.
//   - A table at Workers == 1 consumes the caller's stream the same way.
//     Workers > 1 shards a table contiguously with per-shard streams
//     r.Split(w) (internal/shardrun owns the split formula and the clamp
//     rule), byte-identical on labelled tables to one core.Repairer per
//     shard on that shard's stream. RepairTable is the repository's one
//     sharded table path.
package repairsvc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"otfair/internal/blind"
	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/faultinject"
	"otfair/internal/rng"
	"otfair/internal/shardrun"
)

// spanSize is the number of records a stream repairs per span: the unit
// read, repaired and handed to the sink at a time. It bounds a stream's
// memory, not its output — the bytes do not depend on it.
const spanSize = 4096

// Options configures an Engine.
type Options struct {
	// Workers is the table fan-out (0 = GOMAXPROCS, 1 = serial); streams
	// always repair serially. Negative values are rejected with a
	// *shardrun.OptionError.
	Workers int
	// Repair is passed through to every repairer.
	Repair core.RepairOptions
	// Fault is the fault-injection harness (nil in production): each table
	// shard, and each stream span, consults the shard.slow and shard.panic
	// points before it is repaired, so the soak can exercise slow workers
	// and panic isolation.
	Fault *faultinject.Injector
	// Obs receives shard timings from the runner (nil = uninstrumented).
	// Like Fault it never influences execution, so output is
	// byte-identical with or without it.
	Obs *shardrun.Obs
}

// withDefaults validates and defaults the table fan-out through
// shardrun.Options.
func (o Options) withDefaults() (Options, error) {
	so, err := shardrun.Options{Workers: o.Workers}.WithDefaults()
	if err != nil {
		return o, err
	}
	o.Workers = so.Workers
	return o, nil
}

// Totals are the engine's cumulative serving counters, aggregated across
// all requests and shards. Table repairs are all-or-nothing: a failed
// RepairTable contributes nothing (its output is discarded). Stream
// repairs count the records actually emitted to the sink, so a request
// that fails mid-stream still accounts the traffic it served.
type Totals struct {
	// Records and Values count repaired records and feature values.
	Records, Values int64
	// Clamped and EmptyRowFallbacks aggregate core.Diagnostics.
	Clamped, EmptyRowFallbacks int64
	// LabelsUsed counts records that arrived with an observed s label
	// (every record, on a labelled engine); Imputed counts records
	// repaired under the posterior.
	LabelsUsed, Imputed int64
	// ConfidenceSum accumulates max(γ, 1−γ) over imputed records.
	ConfidenceSum float64
	// AmbiguityBins is the aggregated blind.Stats histogram.
	AmbiguityBins [blind.AmbiguityBinCount]int64
}

// MeanConfidence is the average MAP-posterior confidence over imputed
// records, zero when nothing was imputed.
func (t Totals) MeanConfidence() float64 {
	if t.Imputed == 0 {
		return 0
	}
	return t.ConfidenceSum / float64(t.Imputed)
}

// ledger is the lock-guarded Totals an engine accounts into.
type ledger struct {
	mu sync.Mutex
	t  Totals
}

// Engine is a batched repairer bound to one plan and, optionally, one
// calibration. It is safe for concurrent use: the samplers are immutable
// and the counters are guarded.
type Engine struct {
	plan   *core.Plan
	cal    *blind.Calibration // nil = labelled serving
	smp    blind.Samplers
	opts   Options
	totals *ledger
}

// NewEngine precomputes the plan's alias tables and returns a labelled
// engine.
func NewEngine(plan *core.Plan, opts Options) (*Engine, error) {
	if plan == nil {
		return nil, errors.New("repairsvc: nil plan")
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	sampler, err := core.NewPlanSampler(plan)
	if err != nil {
		return nil, err
	}
	return &Engine{plan: plan, smp: blind.Samplers{Labelled: sampler}, opts: opts, totals: new(ledger)}, nil
}

// WithCalibration derives an engine that repairs s-unlabelled records of
// the same plan under a calibration. It shares the labelled alias tables
// and builds only the pooled plan's. The calibration must have been fitted
// against exactly this plan (fingerprints are compared), so a store mix-up
// fails at bind time instead of soft-labelling with a posterior from
// another design. The derived engine keeps its own counters.
func (e *Engine) WithCalibration(cal *blind.Calibration) (*Engine, error) {
	if cal == nil {
		return nil, errors.New("repairsvc: nil calibration")
	}
	planID, err := e.plan.Fingerprint()
	if err != nil {
		return nil, err
	}
	if cal.PlanID() != planID {
		return nil, fmt.Errorf("repairsvc: calibration was fitted for plan %s, not %s", cal.PlanID(), planID)
	}
	pooledPlan, err := cal.PooledPlan(e.plan)
	if err != nil {
		return nil, err
	}
	pooled, err := core.NewPlanSampler(pooledPlan)
	if err != nil {
		return nil, err
	}
	return &Engine{
		plan:   e.plan,
		cal:    cal,
		smp:    blind.Samplers{Labelled: e.smp.Labelled, Pooled: pooled},
		opts:   e.opts,
		totals: new(ledger),
	}, nil
}

// Plan returns the bound plan.
func (e *Engine) Plan() *core.Plan { return e.plan }

// Calibration returns the bound calibration (nil for a labelled engine).
func (e *Engine) Calibration() *blind.Calibration { return e.cal }

// Totals returns a snapshot of the cumulative counters.
func (e *Engine) Totals() Totals {
	e.totals.mu.Lock()
	defer e.totals.mu.Unlock()
	return e.totals.t
}

// account folds a finished request's traffic into the cumulative counters.
func (e *Engine) account(n int, st blind.Stats, d core.Diagnostics) {
	l := e.totals
	l.mu.Lock()
	l.t.Records += int64(n)
	l.t.Values += d.Repaired
	l.t.Clamped += d.Clamped
	l.t.EmptyRowFallbacks += d.EmptyRowFallbacks
	l.t.LabelsUsed += st.LabelsUsed
	l.t.Imputed += st.Imputed
	l.t.ConfidenceSum += st.ConfidenceSum
	for i := range l.t.AmbiguityBins {
		l.t.AmbiguityBins[i] += st.AmbiguityBins[i]
	}
	l.mu.Unlock()
}

// faults consults the fault points every table shard and stream span
// passes before it is repaired (no-ops without an injector).
func (e *Engine) faults() {
	e.opts.Fault.Delay(faultinject.ShardSlow)
	e.opts.Fault.Panic(faultinject.ShardPanic)
}

// repairer builds one repairer over the shared samplers.
func (e *Engine) repairer(r *rng.RNG, method blind.Method) (*blind.Repairer, error) {
	return blind.NewCalibrated(e.cal, e.smp, r, blind.Options{Method: method, Repair: e.opts.Repair})
}

// check validates a request's common arguments.
func (e *Engine) check(r *rng.RNG, dim int) error {
	if r == nil {
		return errors.New("repairsvc: nil rng")
	}
	if dim != e.plan.Dim {
		return fmt.Errorf("repairsvc: input dimension %d does not match plan %d", dim, e.plan.Dim)
	}
	return nil
}

// RepairTable repairs a table. The method picks how unlabelled records are
// repaired (MethodPooled also transports labelled ones); labelled serving
// passes blind.MethodHard, the zero value. With Workers == 1 it is
// byte-identical to the reference repairer's RepairTable on the same RNG;
// with Workers == w > 1 it shards contiguously on Split(w) streams via
// shardrun.TableObs — on labelled tables, byte-identical to one
// core.Repairer per shard on its split stream, including the clamp to a
// single Split(0) shard on tables smaller than w.
func (e *Engine) RepairTable(r *rng.RNG, method blind.Method, t *dataset.Table) (*dataset.Table, blind.Stats, core.Diagnostics, error) {
	return e.RepairTableContext(context.Background(), r, method, t)
}

// RepairTableContext is RepairTable under a context: cancellation aborts
// the repair with ctx.Err() at the next span-block boundary and the output
// table is discarded whole — table repair is all-or-nothing, so
// cancellation never surfaces a partially repaired table.
func (e *Engine) RepairTableContext(ctx context.Context, r *rng.RNG, method blind.Method, t *dataset.Table) (*dataset.Table, blind.Stats, core.Diagnostics, error) {
	var (
		stats blind.Stats
		diag  core.Diagnostics
	)
	if t == nil {
		return nil, stats, diag, errors.New("repairsvc: nil table")
	}
	if err := e.check(r, t.Dim()); err != nil {
		return nil, stats, diag, err
	}
	n := t.Len()
	records := t.Records()
	repaired := make([]dataset.Record, n)
	// Sized by the table, not the requested fan-out (see shardrun.Slots).
	slots := shardrun.Slots(e.opts.Workers, n)
	allStats := make([]blind.Stats, slots)
	diags := make([]core.Diagnostics, slots)
	span := func(w int, rr *rng.RNG, lo, hi int) error {
		e.faults()
		rp, err := e.repairer(rr, method)
		if err != nil {
			return err
		}
		if _, err := rp.RepairSpan(ctx, lo, records[lo:hi], repaired[lo:hi]); err != nil {
			return err
		}
		allStats[w], diags[w] = rp.Stats(), rp.Diagnostics()
		return nil
	}
	var err error
	if e.opts.Workers == 1 {
		// Serial mode consumes the caller's stream directly (no Split);
		// isolate it the way the fan-out isolates its workers, so a
		// panicking repair fails this request with a typed error instead
		// of the process.
		err = shardrun.IsolatedObs(e.opts.Obs, func() error { return span(0, r, 0, n) })
	} else {
		err = shardrun.TableObs(ctx, r, e.opts.Workers, n, e.opts.Obs, span)
	}
	if err != nil {
		return nil, stats, diag, err
	}
	for w := range slots {
		stats.Merge(allStats[w])
		diag.Merge(diags[w])
	}
	out, err := dataset.NewTable(t.Dim(), t.Names())
	if err != nil {
		return nil, stats, diag, err
	}
	if err := out.AppendAll(repaired); err != nil {
		return nil, stats, diag, err
	}
	e.account(n, stats, diag)
	return out, stats, diag, nil
}

// RepairStreamContext repairs a record stream and hands it to sink one
// span at a time: sink(in, out) gets original records and their repairs
// (out[i] repairs in[i]) in input order, serially, from the calling
// goroutine, and must not retain either slice. One repairer on the
// caller's RNG repairs spans of up to spanSize records with
// blind.Repairer.RepairSpan — byte-identical to the reference repairer's
// RepairStream at the same seed and method, whatever Workers is. A read or
// repair error first sinks every record before the failing one; repair
// errors name its absolute index.
//
// Cancelling ctx (the per-request deadline and client disconnect) surfaces
// as ctx.Err() at the next RepairSpan block (at most 1 024 records) and
// only truncates the output: every delivered record is byte-identical to
// the uncancelled run at the same seed. Emitted traffic is accounted on
// every exit path.
func (e *Engine) RepairStreamContext(ctx context.Context, r *rng.RNG, method blind.Method, in dataset.Stream, sink func(in, out []dataset.Record) error) (total int, stats blind.Stats, diag core.Diagnostics, err error) {
	if in == nil {
		return 0, stats, diag, errors.New("repairsvc: nil stream")
	}
	if err := e.check(r, in.Dim()); err != nil {
		return 0, stats, diag, err
	}
	defer func() { e.account(total, stats, diag) }()
	err = shardrun.IsolatedObs(e.opts.Obs, func() error {
		rp, err := e.repairer(r, method)
		if err != nil {
			return err
		}
		defer func() { stats, diag = rp.Stats(), rp.Diagnostics() }()
		var span, out []dataset.Record
		for {
			span = span[:0]
			var readErr error
			for len(span) < spanSize {
				rec, err := in.Next()
				if err != nil {
					readErr = err
					break
				}
				span = append(span, rec)
			}
			if cap(out) < len(span) {
				out = make([]dataset.Record, cap(span))
			}
			e.faults()
			n, err := rp.RepairSpan(ctx, total, span, out[:len(span)])
			if n > 0 {
				if err := sink(span[:n], out[:n]); err != nil {
					return err
				}
				total += n
			}
			switch {
			case err != nil:
				return err
			case readErr == io.EOF:
				return nil
			case readErr != nil:
				return readErr
			}
		}
	})
	return total, stats, diag, err
}
