package obs

import (
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one segment of a request's life. The set is fixed so a
// trace's span slab is a flat array — no maps, no per-span allocation.
type Stage uint8

const (
	// StageAdmission covers the admission gate and parameter validation.
	StageAdmission Stage = iota
	// StageSpool covers copying the request body to the disk spool.
	StageSpool
	// StageDecode accumulates wire-format parsing (per record, sampled
	// requests only — see Trace.Sampled).
	StageDecode
	// StageShardExecute covers the repair engines and the shard runner.
	StageShardExecute
	// StageEncode accumulates wire-format rendering (per span of records,
	// sampled requests only).
	StageEncode
	// StageFlush covers the final response flush.
	StageFlush
	// StageMonitor accumulates the observability tap on each delivered
	// span — the rolling record windows, the drift monitor's Observe and
	// the drift-watch reservoir — on sampled requests only. It is nested:
	// the same time is also counted in StageShardExecute.
	StageMonitor
	// NumStages is the span slab size.
	NumStages = int(StageMonitor) + 1
)

var stageNames = [NumStages]string{"admission", "spool", "decode", "shard_execute", "encode", "flush", "monitor"}

func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageNames returns the stage label values in slab order, for metric
// registration loops.
func StageNames() [NumStages]string { return stageNames }

// Trace is one request's trace: a generated request ID plus a preallocated
// span slab of cumulative per-stage durations. Traces are pooled by the
// Tracer; every method is nil-receiver safe so an untraced deployment
// (nil Tracer, nil Trace) pays one pointer check per instrumentation
// point.
//
//otfair:nilsafe nil trace means the request is unsampled; span adds are no-ops
type Trace struct {
	id      string
	seq     uint64
	start   time.Time
	stages  [NumStages]time.Duration
	mark    time.Time
	sampled bool
	idBuf   [16]byte
	hexBuf  [32]byte
}

// ID returns the request's hex ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Sampled reports whether this trace records fine-grained (per-record)
// stages — decode and encode — in addition to the coarse request-level
// spans every trace records. False on nil.
func (t *Trace) Sampled() bool {
	return t != nil && t.sampled
}

// Begin marks the start of a coarse stage. Stages are recorded
// cumulatively, so Begin/End pairs may repeat.
func (t *Trace) Begin(Stage) {
	if t == nil {
		return
	}
	t.mark = time.Now()
}

// End accumulates the time since the matching Begin into the stage's span.
func (t *Trace) End(st Stage) {
	if t == nil {
		return
	}
	t.stages[st] += time.Since(t.mark)
}

// Add accumulates an externally measured duration into a stage — the
// per-record path for sampled decode/encode spans.
func (t *Trace) Add(st Stage, d time.Duration) {
	if t == nil {
		return
	}
	t.stages[st] += d
}

// Get returns a stage's accumulated duration (0 on nil).
func (t *Trace) Get(st Stage) time.Duration {
	if t == nil {
		return 0
	}
	return t.stages[st]
}

// Set replaces a stage's duration — used to back out sampled sub-spans
// from an enclosing wall measurement (shard_execute = run wall − decode −
// encode).
func (t *Trace) Set(st Stage, d time.Duration) {
	if t == nil {
		return
	}
	t.stages[st] = d
}

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// SlowThreshold is the total request duration at and above which a
	// finished trace is recorded in the slow ring (0 = never).
	SlowThreshold time.Duration
	// SampleEvery enables fine-grained per-record stage timing on every
	// N-th request (1 = all, 0 = never). Coarse request-level spans are
	// always recorded; sampling only gates the spans that cost a clock
	// read per record.
	SampleEvery uint64
	// SlowRing bounds the retained slow-request records (default 16).
	SlowRing int
}

// SlowRequest is one retained slow-request record, surfaced in
// /v1/metrics so an operator can see where a slow request's time went
// without a tracing backend.
type SlowRequest struct {
	ID     string
	At     time.Time
	Total  time.Duration
	Stages [NumStages]time.Duration
	// Detail is the caller-composed context line (plan, record count,
	// status...) — obs stays ignorant of serving-layer vocabulary.
	Detail string
}

// TraceResult is the summary Finish returns, by value so the pooled Trace
// can be reclaimed immediately.
type TraceResult struct {
	ID     string
	Total  time.Duration
	Stages [NumStages]time.Duration
	Slow   bool
}

// Tracer generates request IDs and owns the trace pool and the
// slow-request ring. A nil *Tracer is the untraced no-op: Start returns a
// nil *Trace and every downstream method is a pointer check.
//
//otfair:nilsafe nil tracer disables request tracing entirely
type Tracer struct {
	opts TracerOptions
	base uint64
	seq  atomic.Uint64
	slow atomic.Uint64 // total slow requests ever recorded
	pool sync.Pool

	mu   sync.Mutex
	ring []SlowRequest
	next int
	full bool
}

// NewTracer builds a tracer. Request IDs mix a boot-time base with a
// sequence counter, so they are unique within a process and practically
// unique across restarts.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.SlowRing <= 0 {
		opts.SlowRing = 16
	}
	t := &Tracer{opts: opts, base: splitmix64(uint64(time.Now().UnixNano()))}
	t.pool.New = func() any { return new(Trace) }
	t.ring = make([]SlowRequest, opts.SlowRing)
	return t
}

// splitmix64 is the standard 64-bit finalizer — cheap, well mixed, and
// already used by faultinject for schedule phases.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Start begins one request trace: a pooled span slab with a fresh request
// ID. Returns nil on a nil tracer — the nil flows through every Trace
// method and costs callers one pointer check.
func (t *Tracer) Start() *Trace {
	if t == nil {
		return nil
	}
	tr := t.pool.Get().(*Trace)
	seq := t.seq.Add(1)
	tr.seq = seq
	tr.start = time.Now()
	tr.stages = [NumStages]time.Duration{}
	tr.sampled = t.opts.SampleEvery > 0 && seq%t.opts.SampleEvery == 0
	id := splitmix64(t.base + seq)
	for i := 0; i < 8; i++ {
		tr.idBuf[i] = byte(id >> (56 - 8*i))
	}
	for i := 8; i < 16; i++ {
		tr.idBuf[i] = byte(seq >> (120 - 8*i))
	}
	hex.Encode(tr.hexBuf[:], tr.idBuf[:])
	tr.id = string(tr.hexBuf[:]) // the one allocation per trace
	return tr
}

// Finish completes a trace: computes the total, records it in the slow
// ring when at or past the threshold, returns the summary by value and
// reclaims the trace. The trace must not be used afterwards. detail is
// only rendered into a SlowRequest when the trace is slow, so composing
// it can be gated on the caller's side with SlowThreshold in mind.
func (t *Tracer) Finish(tr *Trace, detail string) TraceResult {
	if t == nil || tr == nil {
		return TraceResult{}
	}
	res := TraceResult{ID: tr.id, Total: time.Since(tr.start), Stages: tr.stages}
	if t.opts.SlowThreshold > 0 && res.Total >= t.opts.SlowThreshold {
		res.Slow = true
		t.slow.Add(1)
		t.mu.Lock()
		t.ring[t.next] = SlowRequest{ID: res.ID, At: time.Now(), Total: res.Total, Stages: res.Stages, Detail: detail}
		t.next++
		if t.next == len(t.ring) {
			t.next, t.full = 0, true
		}
		t.mu.Unlock()
	}
	t.pool.Put(tr)
	return res
}

// SlowTotal reports how many requests ever crossed the slow threshold.
func (t *Tracer) SlowTotal() uint64 {
	if t == nil {
		return 0
	}
	return t.slow.Load()
}

// Slow snapshots the retained slow-request records, oldest first.
func (t *Tracer) Slow() []SlowRequest {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SlowRequest
	if t.full {
		out = append(out, t.ring[t.next:]...)
	}
	out = append(out, t.ring[:t.next]...)
	return out
}
