package obs

import (
	"testing"
	"time"
)

// TestZeroAllocHotPath pins the overhead contract from DESIGN.md: every
// per-observation operation — counter adds, histogram observes and trace
// stage recording — performs zero heap
// allocations. These are the primitives that sit on the 2.3 M rec/s repair
// hot paths; any regression here fails the build.
func TestZeroAllocHotPath(t *testing.T) {
	c := &Counter{}
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocs = %v, want 0", n)
	}
	g := &Gauge{}
	if n := testing.AllocsPerRun(1000, func() { g.Add(1) }); n != 0 {
		t.Errorf("Gauge.Add allocs = %v, want 0", n)
	}
	h := NewHistogram(DefLatencyBuckets())
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.003) }); n != 0 {
		t.Errorf("Histogram.Observe allocs = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.ObserveDuration(time.Millisecond) }); n != 0 {
		t.Errorf("Histogram.ObserveDuration allocs = %v, want 0", n)
	}

	// Nil (uninstrumented) paths must also be free.
	var nc *Counter
	var nh *Histogram
	var ntr *Trace
	if n := testing.AllocsPerRun(1000, func() {
		nc.Add(1)
		nh.Observe(1)
		ntr.Add(StageDecode, 1)
		ntr.Begin(StageFlush)
		ntr.End(StageFlush)
	}); n != 0 {
		t.Errorf("nil instrument path allocs = %v, want 0", n)
	}

	// Trace stage recording on a live trace (Start/Finish allocate the hex
	// ID — that is per-request, not per-record — so only the stage ops are
	// pinned here).
	tc := NewTracer(TracerOptions{})
	tr := tc.Start()
	if n := testing.AllocsPerRun(1000, func() {
		tr.Begin(StageDecode)
		tr.End(StageDecode)
		tr.Add(StageEncode, time.Microsecond)
		_ = tr.Get(StageEncode)
		_ = tr.Sampled()
	}); n != 0 {
		t.Errorf("Trace stage ops allocs = %v, want 0", n)
	}
	tc.Finish(tr, "")

	// A pooled Start/Finish cycle costs exactly one allocation: the
	// request-ID string. Pin it so the pool keeps working.
	if n := testing.AllocsPerRun(1000, func() {
		tr := tc.Start()
		tc.Finish(tr, "")
	}); n > 1 {
		t.Errorf("Start/Finish cycle allocs = %v, want <= 1", n)
	}
}
