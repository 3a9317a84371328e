package obs

import (
	"sync"
	"testing"
	"time"
)

func TestNilTracerAndTraceSafe(t *testing.T) {
	var tc *Tracer
	tr := tc.Start()
	if tr != nil {
		t.Fatal("nil tracer Start should return nil trace")
	}
	tr.Begin(StageDecode)
	tr.End(StageDecode)
	tr.Add(StageEncode, time.Millisecond)
	tr.Set(StageFlush, time.Millisecond)
	if tr.Get(StageDecode) != 0 || tr.ID() != "" || tr.Sampled() {
		t.Fatal("nil trace should be inert")
	}
	if res := tc.Finish(tr, "x"); res.ID != "" {
		t.Fatal("nil Finish should be zero")
	}
	if tc.Slow() != nil || tc.SlowTotal() != 0 {
		t.Fatal("nil tracer slow state should be empty")
	}
}

func TestTraceStagesAndIDs(t *testing.T) {
	tc := NewTracer(TracerOptions{SampleEvery: 2})
	seen := map[string]bool{}
	sampled := 0
	for i := 0; i < 10; i++ {
		tr := tc.Start()
		id := tr.ID()
		if len(id) != 32 {
			t.Fatalf("id %q: want 32 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		seen[id] = true
		if tr.Sampled() {
			sampled++
		}
		tr.Begin(StageAdmission)
		tr.End(StageAdmission)
		tr.Add(StageDecode, 3*time.Millisecond)
		tr.Add(StageDecode, 2*time.Millisecond)
		tr.Set(StageShardExecute, 7*time.Millisecond)
		if tr.Get(StageDecode) != 5*time.Millisecond {
			t.Fatalf("decode = %v, want 5ms", tr.Get(StageDecode))
		}
		res := tc.Finish(tr, "")
		if res.ID != id || res.Stages[StageShardExecute] != 7*time.Millisecond {
			t.Fatalf("finish result mismatch: %+v", res)
		}
		if res.Total < 0 {
			t.Fatal("negative total")
		}
	}
	if sampled != 5 {
		t.Fatalf("sampled %d of 10 with SampleEvery=2, want 5", sampled)
	}
	// Pooled reuse must reset stages.
	tr := tc.Start()
	if tr.Get(StageDecode) != 0 {
		t.Fatal("pooled trace retained stale stage data")
	}
	tc.Finish(tr, "")
}

func TestTracerSlowRing(t *testing.T) {
	tc := NewTracer(TracerOptions{SlowThreshold: time.Nanosecond, SlowRing: 3})
	for i := 0; i < 5; i++ {
		tr := tc.Start()
		time.Sleep(time.Microsecond)
		res := tc.Finish(tr, "detail")
		if !res.Slow {
			t.Fatal("request above threshold not marked slow")
		}
	}
	if tc.SlowTotal() != 5 {
		t.Fatalf("SlowTotal = %d, want 5", tc.SlowTotal())
	}
	slow := tc.Slow()
	if len(slow) != 3 {
		t.Fatalf("ring holds %d, want 3", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].At.Before(slow[i-1].At) {
			t.Fatal("slow ring not oldest-first")
		}
	}
	if slow[0].Detail != "detail" || slow[0].ID == "" {
		t.Fatalf("slow record incomplete: %+v", slow[0])
	}

	// Threshold 0 disables the ring entirely.
	off := NewTracer(TracerOptions{})
	tr := off.Start()
	time.Sleep(time.Microsecond)
	if res := off.Finish(tr, ""); res.Slow {
		t.Fatal("slow with zero threshold")
	}
	if len(off.Slow()) != 0 {
		t.Fatal("ring populated with zero threshold")
	}
}

func TestTracerConcurrentIDsUnique(t *testing.T) {
	tc := NewTracer(TracerOptions{})
	const workers, per = 8, 200
	var mu sync.Mutex
	seen := make(map[string]bool, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]string, 0, per)
			for i := 0; i < per; i++ {
				tr := tc.Start()
				ids = append(ids, tr.ID())
				tc.Finish(tr, "")
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range ids {
				if seen[id] {
					t.Errorf("duplicate id %s", id)
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
}

func TestStageNames(t *testing.T) {
	names := StageNames()
	want := []string{"admission", "spool", "decode", "shard_execute", "encode", "flush", "monitor"}
	if len(names) != len(want) {
		t.Fatalf("%d stages, want %d", len(names), len(want))
	}
	for i, w := range want {
		if names[i] != w {
			t.Fatalf("stage %d = %q, want %q", i, names[i], w)
		}
	}
	if StageShardExecute.String() != "shard_execute" {
		t.Fatal("Stage.String mismatch")
	}
	if Stage(200).String() != "unknown" {
		t.Fatal("out-of-range Stage.String")
	}
}
