package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if err := in.Err(StoreRead); err != nil {
		t.Fatalf("nil injector returned error: %v", err)
	}
	in.Delay(ShardSlow)
	in.Panic(ShardPanic)
	b := []byte("payload")
	if got := in.Corrupt(StoreTornWrite, b); string(got) != "payload" {
		t.Fatalf("nil injector corrupted bytes: %q", got)
	}
	if in.Hits(StoreRead) != 0 || in.Fired(StoreRead) != 0 {
		t.Fatal("nil injector counted hits")
	}
	if in.Snapshot() != nil {
		t.Fatal("nil injector returned a snapshot")
	}
}

func TestEveryNthSchedule(t *testing.T) {
	in := New(1).Set("p", Rule{Every: 3, Phase: 1})
	var fires []int
	for i := 0; i < 9; i++ {
		if err := in.Err("p"); err != nil {
			fires = append(fires, i)
			var ie *Error
			if !errors.As(err, &ie) || ie.Point != "p" {
				t.Fatalf("wrong error type/point: %v", err)
			}
		}
	}
	want := []int{1, 4, 7}
	if len(fires) != len(want) {
		t.Fatalf("fired at %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fires, want)
		}
	}
	if in.Hits("p") != 9 || in.Fired("p") != 3 {
		t.Fatalf("hits=%d fired=%d, want 9/3", in.Hits("p"), in.Fired("p"))
	}
}

func TestSeededPhaseIsDeterministic(t *testing.T) {
	a := New(42).Set("p", Rule{Every: 7})
	b := New(42).Set("p", Rule{Every: 7})
	c := New(43).Set("p", Rule{Every: 7})
	if a.points["p"].rule.Phase != b.points["p"].rule.Phase {
		t.Fatal("same seed derived different phases")
	}
	// Not guaranteed distinct for every seed pair, but these two are.
	if a.points["p"].rule.Phase == c.points["p"].rule.Phase {
		t.Fatalf("seeds 42 and 43 derived the same phase %d", a.points["p"].rule.Phase)
	}
	if p := a.points["p"].rule.Phase; p >= 7 {
		t.Fatalf("phase %d out of range", p)
	}
}

func TestLimitCapsFirings(t *testing.T) {
	in := New(1).Set("p", Rule{Every: 1, Limit: 2})
	n := 0
	for i := 0; i < 10; i++ {
		if in.Err("p") != nil {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("fired %d times, want 2 (limit)", n)
	}
	if in.Fired("p") != 2 {
		t.Fatalf("Fired = %d, want 2", in.Fired("p"))
	}
}

func TestCustomError(t *testing.T) {
	sentinel := errors.New("boom")
	in := New(1).Set("p", Rule{Every: 1, Err: sentinel})
	if err := in.Err("p"); !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
}

func TestPanicCarriesPoint(t *testing.T) {
	in := New(1).Set("p", Rule{Every: 1})
	defer func() {
		v := recover()
		pv, ok := v.(PanicValue)
		if !ok || pv.Point != "p" {
			t.Fatalf("recovered %v, want PanicValue for p", v)
		}
	}()
	in.Panic("p")
	t.Fatal("did not panic")
}

func TestCorruptTruncates(t *testing.T) {
	in := New(1).Set("p", Rule{Every: 2, Phase: 0})
	b := []byte("0123456789")
	torn := in.Corrupt("p", b)
	if len(torn) != 5 || string(torn) != "01234" {
		t.Fatalf("torn = %q, want first half", torn)
	}
	if string(b) != "0123456789" {
		t.Fatal("original bytes mutated")
	}
	if got := in.Corrupt("p", b); len(got) != len(b) {
		t.Fatal("off-schedule hit still corrupted")
	}
}

func TestDelaySleeps(t *testing.T) {
	in := New(1).Set("p", Rule{Every: 1, Delay: 10 * time.Millisecond})
	start := time.Now()
	in.Delay("p")
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("slept %v, want >= 10ms", d)
	}
}

// TestConcurrentFireCountDeterministic pins the property the soak relies
// on: under arbitrary interleaving, the total number of firings is a pure
// function of seed, rule and hit count.
func TestConcurrentFireCountDeterministic(t *testing.T) {
	const workers, perWorker = 8, 1000
	in := New(99).Set("p", Rule{Every: 10})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				in.Err("p")
			}
		}()
	}
	wg.Wait()
	if got, want := in.Fired("p"), uint64(workers*perWorker/10); got != want {
		t.Fatalf("fired %d, want %d", got, want)
	}
	if snap := in.Snapshot(); snap["p"] != in.Fired("p") {
		t.Fatalf("snapshot %v disagrees with Fired %d", snap, in.Fired("p"))
	}
}

// Hits reports how many times the point was reached (0 for unknown points
// and nil injectors).
func (in *Injector) Hits(name string) uint64 {
	p := in.point(name)
	if p == nil {
		return 0
	}
	return p.hits.Load()
}
