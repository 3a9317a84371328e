// Package repairsvc is the serving layer of the repository: a batched,
// sharded implementation of Algorithm 2 (the Engine) and an HTTP front end
// (the Server) that together turn a once-designed repair plan into a
// long-running archival-repair service — the deployment mode the paper's
// design/apply split exists for.
//
// One Engine type serves both deployment modes. NewEngine binds a plan for
// labelled traffic, resolving every (u, s, feature, support-row)
// multinomial of the plan into an alias table once (core.PlanSampler).
// WithCalibration derives an engine for s-unlabelled archives (the paper's
// Section VI case) that shares those tables and adds the calibration's
// posterior Pr[s|x,u] and the pooled plan's sampler. Every shard runs a
// blind.Repairer on its own rng.Split stream; a record carrying an
// observed s consumes that stream exactly as core.Repairer.RepairRecord
// does, and on a labelled engine an unlabelled record fails with
// blind.ErrNoPosterior. Determinism contract:
//
//   - Workers == 1 consumes the caller's RNG stream directly, so output is
//     byte-identical to core.Repairer (labelled) or blind.Repairer
//     (calibrated) RepairTable / RepairStream with the same seed and
//     method — the property the serve-path equivalence tests pin.
//   - Workers > 1 shards a table contiguously with per-shard streams
//     r.Split(w), byte-identical to core.RepairTableParallel on labelled
//     tables; streams are repaired in chunks with per-(chunk, shard)
//     streams, reproducible for a fixed (seed, workers, chunk size)
//     regardless of scheduling.
//
// The shard/chunk machinery — the split formulas, the clamp rule, the
// serial drain — lives in internal/shardrun, its one owner.
package repairsvc

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"otfair/internal/blind"
	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/faultinject"
	"otfair/internal/rng"
	"otfair/internal/shardrun"
)

// ctxCheckEvery is how many records the serial streaming path repairs
// between context polls: cancellation lands within this many records, and
// the hot path pays a counter decrement, not a context mutex, per record.
const ctxCheckEvery = 64

// Options configures an Engine.
type Options struct {
	// Workers is the shard fan-out (0 = GOMAXPROCS, 1 = the serial
	// byte-compatible mode). Negative values are rejected with a
	// *shardrun.OptionError.
	Workers int
	// ChunkSize is the number of records repaired per parallel wave in
	// streaming mode (0 = shardrun.DefaultChunkSize). Larger chunks
	// amortize fan-out overhead; smaller chunks bound latency and memory.
	// Negative values are rejected with a *shardrun.OptionError.
	ChunkSize int
	// Repair is passed through to every shard repairer.
	Repair core.RepairOptions
	// Fault is the fault-injection harness (nil in production): each shard
	// consults the shard.slow and shard.panic points before repairing its
	// span, so the soak can exercise slow workers and panic isolation.
	Fault *faultinject.Injector
	// Obs receives shard and chunk timings from the runner (nil =
	// uninstrumented). Like Fault it never influences execution, so output
	// is byte-identical with or without it.
	Obs *shardrun.Obs
}

// withDefaults validates and defaults the sharding knobs through
// shardrun.Options.
func (o Options) withDefaults() (Options, error) {
	so, err := shardrun.Options{Workers: o.Workers, ChunkSize: o.ChunkSize}.WithDefaults()
	if err != nil {
		return o, err
	}
	o.Workers, o.ChunkSize = so.Workers, so.ChunkSize
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

// ledger is the lock-guarded Totals an engine and the engines derived from
// it by WithWorkers account into.
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

// WithWorkers derives an engine with a different fan-out over the same
// plan, calibration and precomputed samplers — the per-request ?workers=
// override path, which must not rebuild any alias table. The derived
// engine accounts into this engine's counters.
func (e *Engine) WithWorkers(workers int) (*Engine, error) {
	opts := e.opts
	opts.Workers = workers
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	d := *e
	d.opts = opts
	return &d, nil
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

// repairer builds one shard's repairer over the shared samplers, after
// consulting the fault points every shard passes.
func (e *Engine) repairer(r *rng.RNG, method blind.Method) (*blind.Repairer, error) {
	e.opts.Fault.Delay(faultinject.ShardSlow)
	e.opts.Fault.Panic(faultinject.ShardPanic)
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
// shardrun.Table — byte-identical to core.RepairTableParallel with w
// workers on labelled tables, including its clamp to a single Split(0)
// shard on tables smaller than w.
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
		rp, err := e.repairer(rr, method)
		if err != nil {
			return err
		}
		if err := rp.RepairSpan(ctx, lo, records[lo:hi], repaired[lo:hi]); err != nil {
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

// RepairStream consumes a record stream and emits repaired records to sink
// in input order. With one worker it holds a single repairer over the
// caller's stream (byte-identical to the reference repairer's
// RepairStream) and sinks each record before reading the next; with more
// it repairs chunks of ChunkSize across per-(chunk, shard) split streams,
// holding at most one chunk in memory. The sink always runs serially, in
// order, from the calling goroutine.
func (e *Engine) RepairStream(r *rng.RNG, method blind.Method, in dataset.Stream, sink func(dataset.Record) error) (int, blind.Stats, core.Diagnostics, error) {
	return e.RepairStreamContext(context.Background(), r, method, in, sink)
}

// RepairStreamContext is RepairStream under a context — the serving
// layer's per-request deadline and client-disconnect path. Cancellation
// surfaces as ctx.Err() within ctxCheckEvery records (serial mode) or by
// the next chunk boundary (chunked mode), and only ever truncates the
// sink's output: every record delivered before the cancellation is
// byte-identical to the uncancelled run at the same seed, because the
// contiguous-shard RNG split formula depends on positions and chunk
// indices, never on where the stream stops. Emitted traffic is accounted
// on every exit path.
func (e *Engine) RepairStreamContext(ctx context.Context, r *rng.RNG, method blind.Method, in dataset.Stream, sink func(dataset.Record) error) (total int, stats blind.Stats, diag core.Diagnostics, err error) {
	if in == nil {
		return 0, stats, diag, errors.New("repairsvc: nil stream")
	}
	if err := e.check(r, in.Dim()); err != nil {
		return 0, stats, diag, err
	}
	defer func() { e.account(total, stats, diag) }()
	if e.opts.Workers <= 1 {
		err = shardrun.IsolatedObs(e.opts.Obs, func() error {
			rp, err := e.repairer(r, method)
			if err != nil {
				return err
			}
			// Per-record sinking: each repaired record reaches the sink
			// before the next is read, so a mid-stream failure leaves
			// every earlier record delivered.
			total, err = rp.RepairStream(dataset.WithContext(ctx, in, ctxCheckEvery), sink)
			stats, diag = rp.Stats(), rp.Diagnostics()
			return err
		})
		return total, stats, diag, err
	}
	// A chunk never uses more shards than it has records, so per-shard
	// state is sized by min(Workers, ChunkSize) — a request-supplied
	// fan-out of a billion must not balloon the allocation.
	slots := shardrun.Slots(e.opts.Workers, e.opts.ChunkSize)
	allStats := make([]blind.Stats, slots)
	diags := make([]core.Diagnostics, slots)
	so := shardrun.Options{Workers: e.opts.Workers, ChunkSize: e.opts.ChunkSize, Obs: e.opts.Obs}
	err = shardrun.Stream(ctx, r, so, in.Next,
		func(_ uint64, w int, rr *rng.RNG, chunk, out []dataset.Record, lo, hi int) error {
			rp, err := e.repairer(rr, method)
			if err != nil {
				return err
			}
			if err := rp.RepairSpan(ctx, lo, chunk[lo:hi], out[lo:hi]); err != nil {
				return err
			}
			allStats[w], diags[w] = rp.Stats(), rp.Diagnostics()
			return nil
		},
		func(out []dataset.Record) error {
			// Merge the chunk's per-shard counters in shard-index order so
			// the floating-point confidence sums stay bit-stable, then sink
			// serially in input order.
			for w := range diags {
				stats.Merge(allStats[w])
				diag.Merge(diags[w])
				allStats[w], diags[w] = blind.Stats{}, core.Diagnostics{}
			}
			for _, rec := range out {
				if err := sink(rec); err != nil {
					return err
				}
				total++
			}
			return nil
		})
	return total, stats, diag, err
}
