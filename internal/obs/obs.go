// Package obs is the serving stack's observability layer: a dependency-free
// metrics registry (atomic counters, gauges, fixed-bucket lock-free
// histograms with mergeable per-shard recorders), Prometheus text-format
// exposition, and a lightweight per-request tracer whose stage spans are
// recorded into preallocated slabs.
//
// The package exists so instrumentation can ride the 2.3 M rec/s hot paths
// without bending them: every instrument is nil-receiver safe (an
// uninstrumented deployment holds nil pointers and pays one pointer check,
// faultinject-style) and a recording is a single atomic add. Nothing here
// allocates per observation — pinned by AllocsPerRun tests — and the
// registry depends only on the standard library.
//
// Naming follows Prometheus conventions: counters end in _total, durations
// are _seconds histograms, and label sets are fixed at registration time
// (vecs are for small closed label sets like route or stage, never for
// unbounded values like plan fingerprints — those stay in the JSON
// /v1/metrics endpoint where cardinality is the client's problem).
package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotone cumulative counter. The zero value is ready to use;
// a nil *Counter is the uninstrumented no-op.
//
//otfair:nilsafe nil counter is the uninstrumented no-op on the record hot path
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on nil).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. The zero value is ready to use;
// a nil *Gauge is the uninstrumented no-op.
//
//otfair:nilsafe nil gauge is the uninstrumented no-op on the record hot path
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Load returns the current value (0 on nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// kind is the Prometheus metric type of a family.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (label set, instrument) pair inside a family. Exactly one
// of the instrument fields is set; fn-backed series are evaluated at
// exposition time so existing state (store stats, engine totals) can be
// exported without double counting.
type series struct {
	labels string // rendered `k="v",...` (no braces), "" for unlabelled
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family is one named metric with its help text and every registered
// label variant.
type family struct {
	name, help string
	kind       kind
	series     []*series
	byLabels   map[string]*series
}

// Registry is an ordered collection of metric families. Registration takes
// a mutex (bind-time, not hot-path); the instruments it hands out are
// lock-free. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// renderLabels turns k,v pairs into the canonical `k="v",...` fragment.
// Values are escaped per the exposition format (backslash, quote, newline).
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register resolves (or creates) the family and the series for a label
// set. Re-registering an identical (name, labels) pair returns the existing
// series — idempotent binds are what let several layers share one registry
// — while a name registered under two different kinds panics: that is a
// programming error, caught at bind time.
func (r *Registry) register(name, help string, k kind, labels []string) *series {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.byName[name]
	if !ok {
		fam = &family{name: name, help: help, kind: k, byLabels: make(map[string]*series)}
		r.byName[name] = fam
		r.families = append(r.families, fam)
	} else if fam.kind != k {
		panic(fmt.Sprintf("obs: metric %s registered as both %s and %s", name, fam.kind, k))
	}
	ls := renderLabels(labels)
	if s, ok := fam.byLabels[ls]; ok {
		return s
	}
	s := &series{labels: ls}
	fam.byLabels[ls] = s
	fam.series = append(fam.series, s)
	return s
}

// Counter registers (or returns) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterL(name, help)
}

// CounterL registers (or returns) a counter with a fixed label set, given
// as alternating key, value strings.
func (r *Registry) CounterL(name, help string, labels ...string) *Counter {
	s := r.register(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.c == nil && s.fn == nil {
		s.c = &Counter{}
	}
	return s.c
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the adapter for pre-existing cumulative state (store
// stats, resilience counters) that must not be counted twice.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	s := r.register(name, help, kindCounter, labels)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// GaugeL registers (or returns) a gauge with a fixed label set, given as
// alternating key, value strings — the settable counterpart of GaugeFunc
// for small closed label sets (state machines, per-artefact bindings).
//
//otfair:testonly-ok registry API the metriclabel analyzer polices; its fixture and the obs tests register settable gauges
func (r *Registry) GaugeL(name, help string, labels ...string) *Gauge {
	s := r.register(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.g == nil && s.fn == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	s := r.register(name, help, kindGauge, labels)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// Histogram registers (or returns) an unlabelled histogram over the given
// bucket upper bounds (see NewHistogram for the bound contract).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramL(name, help, bounds)
}

// HistogramL registers (or returns) a histogram with a fixed label set.
// Re-registration with different bounds keeps the original's.
func (r *Registry) HistogramL(name, help string, bounds []float64, labels ...string) *Histogram {
	s := r.register(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.h == nil {
		s.h = NewHistogram(bounds)
	}
	return s.h
}
