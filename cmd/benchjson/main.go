// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON document on stdout, so benchmark trajectories can
// be recorded (BENCH_*.json) and diffed across PRs.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkTable1$' -benchtime 2x -count 5 . | go run ./cmd/benchjson
//	... | go run ./cmd/benchjson -baseline BENCH_1.json   # annotate speedups
//
// Results are keyed by (name, GOMAXPROCS), so `-cpu 1,2,4` runs stay
// separate entries. Repeated samples of one key (`-count N`) fold into a
// single entry: the median ns/op (and median of every extra metric) with
// the min/max ns/op and the sample count beside it.
//
// With -baseline, each benchmark present in the baseline file gains
// baseline_ns_per_op and speedup fields (baseline median / current
// median). Baseline entries written before procs were recorded match by
// name alone.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is the folded result of one (name, procs) benchmark.
type Benchmark struct {
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the benchmark ran with (the -N name suffix;
	// 1 when go test printed none).
	Procs int `json:"procs,omitempty"`
	// Samples is the number of result lines folded into this entry.
	Samples int `json:"samples,omitempty"`
	// Iterations is the total b.N across the samples.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the median over the samples; NsPerOpMin/Max bound them.
	NsPerOp         float64 `json:"ns_per_op"`
	NsPerOpMin      float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMax      float64 `json:"ns_per_op_max,omitempty"`
	BaselineNsPerOp float64 `json:"baseline_ns_per_op,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
	// Metrics carries the median of any extra per-op metrics the benchmark
	// reported via b.ReportMetric — e.g. the repair-throughput benchmarks'
	// records/sec — keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the full document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	baselinePath := flag.String("baseline", "", "prior benchjson report to compute speedups against")
	flag.Parse()

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *baselinePath != "" {
		raw, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		var prior Report
		if err := json.Unmarshal(raw, &prior); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parsing %s: %v\n", *baselinePath, err)
			os.Exit(1)
		}
		rep.annotate(prior)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

type key struct {
	name  string
	procs int
}

// samples accumulates the result lines of one key.
type samples struct {
	iters   int64
	ns      []float64
	metrics map[string][]float64
}

// parse reads `go test -bench` output and folds repeated samples of each
// (name, procs) into one entry, in order of first appearance.
func parse(r io.Reader) (Report, error) {
	var rep Report
	var order []key
	byKey := make(map[key]*samples)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Benchmark<Name>[-procs] <iters> <value> ns/op [more metrics...]
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		k := key{name: strings.TrimPrefix(fields[0], "Benchmark"), procs: 1}
		if i := strings.LastIndex(k.name, "-"); i > 0 {
			if p, err := strconv.Atoi(k.name[i+1:]); err == nil {
				k.name, k.procs = k.name[:i], p
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		acc := byKey[k]
		if acc == nil {
			acc = &samples{metrics: make(map[string][]float64)}
			byKey[k] = acc
			order = append(order, k)
		}
		acc.iters += iters
		acc.ns = append(acc.ns, ns)
		// Remaining fields come in (value, unit) pairs: B/op, allocs/op and
		// any custom b.ReportMetric units (records/sec, ...).
		for i := 4; i+1 < len(fields); i += 2 {
			if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
				acc.metrics[fields[i+1]] = append(acc.metrics[fields[i+1]], v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return rep, fmt.Errorf("reading stdin: %w", err)
	}
	if len(order) == 0 {
		return rep, errors.New("no benchmark lines found on stdin")
	}
	for _, k := range order {
		acc := byKey[k]
		b := Benchmark{Name: k.name, Procs: k.procs, Samples: len(acc.ns), Iterations: acc.iters,
			NsPerOpMin: slices.Min(acc.ns), NsPerOpMax: slices.Max(acc.ns), NsPerOp: median(acc.ns)}
		for u, vs := range acc.metrics {
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64, len(acc.metrics))
			}
			b.Metrics[u] = median(vs)
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	return rep, nil
}

// median of a non-empty slice (the mean of the middle pair for even
// lengths); vs is reordered.
func median(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// annotate adds baseline_ns_per_op and speedup to every benchmark the
// prior report also ran with the same procs — or under the same name, for
// a prior report that predates the procs field.
func (rep *Report) annotate(prior Report) {
	base := make(map[key]float64, len(prior.Benchmarks))
	for _, b := range prior.Benchmarks {
		base[key{b.Name, b.Procs}] = b.NsPerOp
	}
	for i := range rep.Benchmarks {
		b := &rep.Benchmarks[i]
		ns, ok := base[key{b.Name, b.Procs}]
		if !ok {
			ns, ok = base[key{b.Name, 0}]
		}
		if ok && b.NsPerOp > 0 {
			b.BaselineNsPerOp = ns
			b.Speedup = ns / b.NsPerOp
		}
	}
}
