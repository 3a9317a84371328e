package main

import (
	"strings"
	"testing"
)

// cannedRun is `go test -bench Foo -count 3 -cpu 1,2` output: go test
// prints no -N suffix for GOMAXPROCS=1 and interleaves the procs values
// within each count round.
const cannedRun = `goos: linux
goarch: amd64
pkg: otfair
cpu: Test CPU @ 2.00GHz
BenchmarkFoo         	      10	       300 ns/op	       6.0 records/sec
BenchmarkFoo-2       	      20	       150 ns/op	      12.0 records/sec
BenchmarkFoo         	      10	       100 ns/op	       2.0 records/sec
BenchmarkFoo-2       	      20	        90 ns/op	      20.0 records/sec
BenchmarkFoo         	      10	       200 ns/op	       4.0 records/sec
BenchmarkFoo-2       	      20	       120 ns/op	      16.0 records/sec
PASS
ok  	otfair	1.234s
`

func TestParseFoldsRepeatsPerProcs(t *testing.T) {
	rep, err := parse(strings.NewReader(cannedRun))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.CPU != "Test CPU @ 2.00GHz" {
		t.Errorf("header = %+v", rep)
	}
	want := []Benchmark{
		{Name: "Foo", Procs: 1, Samples: 3, Iterations: 30, NsPerOp: 200, NsPerOpMin: 100, NsPerOpMax: 300,
			Metrics: map[string]float64{"records/sec": 4}},
		{Name: "Foo", Procs: 2, Samples: 3, Iterations: 60, NsPerOp: 120, NsPerOpMin: 90, NsPerOpMax: 150,
			Metrics: map[string]float64{"records/sec": 16}},
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("got %d entries, want %d: %+v", len(rep.Benchmarks), len(want), rep.Benchmarks)
	}
	for i, w := range want {
		g := rep.Benchmarks[i]
		if g.Name != w.Name || g.Procs != w.Procs || g.Samples != w.Samples || g.Iterations != w.Iterations ||
			g.NsPerOp != w.NsPerOp || g.NsPerOpMin != w.NsPerOpMin || g.NsPerOpMax != w.NsPerOpMax ||
			g.Metrics["records/sec"] != w.Metrics["records/sec"] {
			t.Errorf("entry %d = %+v, want %+v", i, g, w)
		}
	}

	// A baseline with procs matches per procs; a legacy entry without
	// procs matches by name.
	rep.annotate(Report{Benchmarks: []Benchmark{{Name: "Foo", Procs: 2, NsPerOp: 240}}})
	if b := rep.Benchmarks[1]; b.BaselineNsPerOp != 240 || b.Speedup != 2 {
		t.Errorf("procs-2 annotation = %+v", b)
	}
	if b := rep.Benchmarks[0]; b.Speedup != 0 {
		t.Errorf("procs-1 entry matched a procs-2 baseline: %+v", b)
	}
	rep.annotate(Report{Benchmarks: []Benchmark{{Name: "Foo", NsPerOp: 100}}})
	if b := rep.Benchmarks[0]; b.BaselineNsPerOp != 100 || b.Speedup != 0.5 {
		t.Errorf("legacy annotation = %+v", b)
	}
}

func TestParseMedianOfEvenCount(t *testing.T) {
	rep, err := parse(strings.NewReader("BenchmarkBar-4 1 10 ns/op\nBenchmarkBar-4 1 30 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].NsPerOp != 20 || rep.Benchmarks[0].Procs != 4 {
		t.Errorf("got %+v", rep.Benchmarks)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\n")); err == nil {
		t.Error("input without benchmark lines accepted")
	}
}
