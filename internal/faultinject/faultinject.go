// Package faultinject is the deterministic fault-injection harness behind
// the serving stack's resilience tests. Production code holds a
// *Injector that is nil in real deployments — every hook method is
// nil-receiver safe and compiles to a single pointer check — and the soak
// harness (`make soak`) arms one with a seeded schedule to drive store
// corruption, slow shards and worker panics through a live server.
//
// Schedules are deterministic by construction: each failure point carries
// an every-Nth rule whose phase is derived from (seed, point name), and a
// per-point atomic hit counter decides firing. Under concurrency the
// *which goroutine* observes a given firing is scheduling-dependent, but
// the multiset of outcomes — how many hits fire, at which hit indices —
// is a pure function of the seed and the rules, which is what lets the
// soak assert exact failure counts while requests race.
package faultinject

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"
)

// The failure points the serving stack exposes. A point name is just a
// string — packages may add their own — but the cross-package ones are
// declared here so the soak harness and the hooks cannot drift.
const (
	// StoreRead fails an artefact read with an injected error before the
	// file is opened (planstore).
	StoreRead = "store.read"
	// StoreWrite fails an artefact write before the temp file is created
	// (planstore).
	StoreWrite = "store.write"
	// StoreTornWrite truncates an artefact's bytes on their way to disk,
	// simulating a torn write that the content-addressed read path must
	// catch and quarantine (planstore).
	StoreTornWrite = "store.torn-write"
	// ShardSlow delays a shard worker before it starts repairing
	// (repairsvc engine).
	ShardSlow = "shard.slow"
	// ShardPanic panics a shard worker, exercising shardrun's panic
	// isolation (repairsvc engine).
	ShardPanic = "shard.panic"
	// FeedFetch fails a research-feed fetch attempt before the source is
	// consulted (researchfeed).
	FeedFetch = "feed.fetch"
	// FeedTimeout times out a research-feed fetch attempt, exercising
	// the retry/backoff ladder (researchfeed).
	FeedTimeout = "feed.timeout"
	// FeedTornBody truncates fetched research-feed bytes, simulating a
	// torn transfer the CSV parse must catch (researchfeed).
	FeedTornBody = "feed.torn-body"
	// FeedStale forces a not-modified answer from the research feed,
	// exercising the fingerprint-staleness path (researchfeed).
	FeedStale = "feed.stale"
)

// Rule schedules one failure point. The zero value never fires.
type Rule struct {
	// Every fires the point on every Every-th hit (1 = every hit,
	// 0 = never).
	Every uint64
	// Phase shifts which hit in each window of Every fires. When left
	// zero with Every > 1, Set derives it from the injector seed and the
	// point name, so different seeds stress different hit indices.
	Phase uint64
	// Limit caps the total number of firings (0 = unlimited).
	Limit uint64
	// Delay is how long ShardSlow-style points sleep when they fire.
	Delay time.Duration
	// Err overrides the injected error (default: a *Error).
	Err error
}

// Error is the default injected failure, typed so tests and status
// mapping can recognize synthetic faults.
type Error struct {
	Point string
	Fire  uint64 // 1-based firing index at this point
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected failure at %s (firing %d)", e.Point, e.Fire)
}

// PanicValue is what Panic points panic with, so recover sites can tell a
// synthetic panic from a real one in test assertions.
type PanicValue struct {
	Point string
	Fire  uint64
}

func (p PanicValue) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s (firing %d)", p.Point, p.Fire)
}

type point struct {
	rule  Rule
	hits  atomic.Uint64
	fired atomic.Uint64
}

// fire registers one hit and reports whether it fires, with the 1-based
// firing index.
func (p *point) fire() (uint64, bool) {
	if p.rule.Every == 0 {
		p.hits.Add(1)
		return 0, false
	}
	n := p.hits.Add(1) - 1 // 0-based hit index
	if n%p.rule.Every != p.rule.Phase {
		return 0, false
	}
	f := p.fired.Add(1)
	if p.rule.Limit > 0 && f > p.rule.Limit {
		return 0, false
	}
	return f, true
}

// Injector schedules failures for a set of named points. Configure every
// rule with Set before sharing the injector across goroutines; after that
// all hook methods are safe for concurrent use. A nil *Injector is the
// production no-op: every hook returns immediately.
//
//otfair:nilsafe nil injector is the production no-fault configuration
type Injector struct {
	seed   uint64
	points map[string]*point
}

// New returns an injector whose derived phases are a function of seed.
// Production wiring injects nothing; only the soak and resilience tests
// build injectors.
//
//otfair:testonly-ok the repairsvc, planstore and researchfeed tests schedule faults through it
func New(seed uint64) *Injector {
	return &Injector{seed: seed, points: make(map[string]*point)}
}

// Set installs (or replaces) the rule for a point. With Every > 1 and
// Phase zero, the phase is derived from (seed, name) so the same seed
// always stresses the same hit indices.
func (in *Injector) Set(name string, r Rule) *Injector {
	if r.Every > 1 && r.Phase == 0 {
		//otfair:nilrecv-ok setup-time builder reached via New; a nil here is a programming error worth the panic
		r.Phase = phase(in.seed, name) % r.Every
	}
	if r.Every > 0 {
		r.Phase %= r.Every
	}
	in.points[name] = &point{rule: r}
	return in
}

// phase mixes the seed with the point name (splitmix64 over an FNV of the
// name) to pick a deterministic schedule phase.
func phase(seed uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	z := seed ^ h.Sum64()
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (in *Injector) point(name string) *point {
	if in == nil {
		return nil
	}
	return in.points[name]
}

// Err registers a hit at the point and returns the injected error when
// the schedule fires, nil otherwise (and always nil on a nil injector).
func (in *Injector) Err(name string) error {
	p := in.point(name)
	if p == nil {
		return nil
	}
	f, ok := p.fire()
	if !ok {
		return nil
	}
	if p.rule.Err != nil {
		return p.rule.Err
	}
	return &Error{Point: name, Fire: f}
}

// Delay registers a hit and sleeps the rule's Delay when the schedule
// fires.
func (in *Injector) Delay(name string) {
	p := in.point(name)
	if p == nil {
		return
	}
	if _, ok := p.fire(); ok && p.rule.Delay > 0 {
		time.Sleep(p.rule.Delay)
	}
}

// Panic registers a hit and panics with a PanicValue when the schedule
// fires.
func (in *Injector) Panic(name string) {
	p := in.point(name)
	if p == nil {
		return
	}
	if f, ok := p.fire(); ok {
		panic(PanicValue{Point: name, Fire: f})
	}
}

// Corrupt registers a hit and, when the schedule fires, returns a torn
// copy of b — truncated to half its length — simulating a partial write.
// Otherwise (and always on a nil injector) it returns b unchanged.
func (in *Injector) Corrupt(name string, b []byte) []byte {
	p := in.point(name)
	if p == nil {
		return b
	}
	if _, ok := p.fire(); !ok {
		return b
	}
	torn := make([]byte, len(b)/2)
	copy(torn, b)
	return torn
}

// Fired reports how many times the point actually injected its failure.
func (in *Injector) Fired(name string) uint64 {
	p := in.point(name)
	if p == nil {
		return 0
	}
	f := p.fired.Load()
	if p.rule.Limit > 0 && f > p.rule.Limit {
		f = p.rule.Limit
	}
	return f
}

// Snapshot returns the fired count per configured point, for soak
// assertions and logs.
func (in *Injector) Snapshot() map[string]uint64 {
	if in == nil {
		return nil
	}
	out := make(map[string]uint64, len(in.points))
	for name := range in.points {
		out[name] = in.Fired(name)
	}
	return out
}
