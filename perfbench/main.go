// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It boots the fairserved HTTP server (repairsvc) in process on a loopback
// listener, drives it with one closed-loop client for a fixed time, checks
// every response against the in-process library path, and prints one JSON
// result line.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload repair_csv --seed 1 --seconds 25 --trace 0
//
// The workloads are listed in workloads.go. Each run first boots the server
// from cold several times (fresh store, empty design cache), each boot
// designing its plan over HTTP and answering one small repair, and reports
// the median boot as setup_s. The last boot then serves the measured loop.
//
// The end-to-end times are processor time of the whole process (server and
// client, all threads), not wall time, scaled to a nominal host speed. On a
// shared virtual machine the host takes the processors away for stretches
// of seconds, which moves wall-clock medians by a third from one run to the
// next; a kernel with steal-time accounting leaves that stolen time out of
// a process's processor time. What remains is the host running the
// process's code faster or slower as neighbours load the same cores, which
// the benchmark samples with a fixed reference kernel of its own after
// every boot and operation and divides out (calib.go). The cost of
// measuring processor time is that a change that only spreads the same work
// over more cores does not show.
//
// With --trace 0 the result carries the end-to-end metrics: the median
// scaled processor time of an operation (norm_cpu_ms_per_op) and of a boot
// (setup_s). With --trace 1 the server samples per-record decode/encode
// spans on every request and the result carries the per-layer metrics
// instead: the server's own otfair_repair_stage_seconds per record, and
// benchmark-side spans around
// each Algorithm-1 layer (CSV decode, KDE, barycentric target, transport
// plan) from a cache-free replay of the run's designs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "length of the measured loop in seconds")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
		dir     = flag.String("dir", ".bench_build", "scratch directory for stores and spools")
	)
	flag.Parse()
	w, ok := workloads[*name]
	switch {
	case !ok:
		fail(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	case !(*seconds > 0):
		fail(fmt.Errorf("--seconds must be positive, got %v", *seconds))
	case *trace != 0 && *trace != 1:
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	runDir, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fail(err)
	}
	res, err := run(w, config{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: runDir})
	if rmErr := os.RemoveAll(runDir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	os.Exit(1)
}
