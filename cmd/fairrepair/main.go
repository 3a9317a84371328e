// Command fairrepair is the deployment CLI: it designs repair plans from
// research CSVs, applies saved plans to archival CSVs (streaming), and
// evaluates the fairness metric on data files.
//
// Usage:
//
//	fairrepair design      -research research.csv -plan plan.json [-nq 50] [-t 0.5]
//	                       [-amount 1.0] [-solver monotone] [-target barycenter]
//	                       [-barycenter quantile]
//	fairrepair repair      -plan plan.json -in archive.csv -out repaired.csv
//	                       [-seed 1] [-jitter] [-dither]
//	fairrepair blindrepair -plan plan.json -research research.csv -in archive.csv
//	                       -out repaired.csv [-method hard|draw|mix|pooled]
//	fairrepair monitor     -plan plan.json -in archive.csv [-window 256]
//	fairrepair evaluate    -in data.csv [-estimator kde]
//
// CSV layout: header "s,u,<feature names...>"; S empty or "?" when unknown.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"

	"otfair"
	"otfair/internal/core"
	"otfair/internal/fairmetrics"
	"otfair/internal/kde"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "design":
		err = runDesign(os.Args[2:])
	case "repair":
		err = runRepair(os.Args[2:])
	case "evaluate":
		err = runEvaluate(os.Args[2:])
	case "labelest":
		err = runLabelEst(os.Args[2:])
	case "blindrepair":
		err = runBlindRepair(os.Args[2:])
	case "monitor":
		err = runMonitor(os.Args[2:])
	case "inspect":
		err = runInspect(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "fairrepair: unknown command %q\n\n", os.Args[1])
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fairrepair:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `fairrepair: OT-based fairness repair of archival data

commands:
  design       learn a repair plan from a labelled research CSV
  repair       apply a saved plan to an archival CSV (streaming)
  blindrepair  repair an archive whose s labels are missing (hard/draw/mix/pooled)
  monitor      screen an archival CSV against a plan for distribution drift
  evaluate     report the E fairness metric of a CSV
  labelest     label an archive's missing s by the research-fitted QDA
  inspect      print a saved plan's structure and transport costs

run "fairrepair <command> -h" for flags
`)
	os.Exit(2)
}

func runDesign(args []string) error {
	fs := flag.NewFlagSet("design", flag.ExitOnError)
	var (
		researchPath = fs.String("research", "", "labelled research CSV (required)")
		planPath     = fs.String("plan", "", "output plan JSON (required)")
		nq           = fs.Int("nq", 50, "interpolated support resolution nQ")
		t            = fs.Float64("t", 0.5, "barycentre position on the W2 geodesic")
		amount       = fs.Float64("amount", 1.0, "partial repair strength in [0,1]")
		solverName   = fs.String("solver", "monotone", "OT solver: monotone, simplex, sinkhorn")
		targetName   = fs.String("target", "barycenter", "repair-target family: barycenter, mixture, gaussian")
		baryName     = fs.String("barycenter", "quantile", "barycentre method: quantile, bregman")
		kernelName   = fs.String("kernel", "gaussian", "KDE kernel")
		bwName       = fs.String("bandwidth", "silverman", "KDE bandwidth rule: silverman, scott, lscv")
	)
	fs.Parse(args)
	if *researchPath == "" || *planPath == "" {
		return fmt.Errorf("design requires -research and -plan")
	}
	solver, err := core.ParseSolver(*solverName)
	if err != nil {
		return err
	}
	target, err := core.ParseTarget(*targetName)
	if err != nil {
		return err
	}
	bary, err := core.ParseBarycenter(*baryName)
	if err != nil {
		return err
	}
	kernel, err := kde.ParseKernel(*kernelName)
	if err != nil {
		return err
	}
	bandwidth, err := kde.ParseBandwidth(*bwName)
	if err != nil {
		return err
	}
	f, err := os.Open(*researchPath)
	if err != nil {
		return err
	}
	defer f.Close()
	research, err := otfair.ReadCSV(f)
	if err != nil {
		return err
	}
	plan, err := otfair.Design(research, otfair.DesignOptions{
		NQ: *nq, T: *t, Amount: *amount, AmountSet: true,
		Kernel: kernel, Bandwidth: bandwidth,
		Solver: solver, Target: target, Barycenter: bary,
	})
	if err != nil {
		return err
	}
	out, err := os.Create(*planPath)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := plan.WriteJSON(out); err != nil {
		return err
	}
	fmt.Printf("designed plan for %d features from %d research records (nQ=%d) -> %s\n",
		plan.Dim, research.Len(), *nq, *planPath)
	return nil
}

func runRepair(args []string) error {
	fs := flag.NewFlagSet("repair", flag.ExitOnError)
	var (
		planPath = fs.String("plan", "", "plan JSON from `fairrepair design` (required)")
		inPath   = fs.String("in", "", "archival CSV to repair (required; labelled s)")
		outPath  = fs.String("out", "", "output CSV (required)")
		seed     = fs.Uint64("seed", 1, "randomisation seed")
		jitter   = fs.Bool("jitter", false, "spread repaired values within grid cells")
		dither   = fs.Bool("dither", false, "kernel-dither inputs (recommended for integer/atomic features)")
	)
	fs.Parse(args)
	if *planPath == "" || *inPath == "" || *outPath == "" {
		return fmt.Errorf("repair requires -plan, -in and -out")
	}
	pf, err := os.Open(*planPath)
	if err != nil {
		return err
	}
	plan, err := otfair.ReadPlan(pf)
	pf.Close()
	if err != nil {
		return err
	}
	in, err := os.Open(*inPath)
	if err != nil {
		return err
	}
	defer in.Close()
	stream, err := otfair.NewCSVStream(in)
	if err != nil {
		return err
	}
	rep, err := otfair.NewRepairer(plan, otfair.NewRNG(*seed), otfair.RepairOptions{
		Jitter: *jitter, KernelDither: *dither,
	})
	if err != nil {
		return err
	}
	out, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	defer out.Close()
	cw := csv.NewWriter(out)
	if err := cw.Write(append([]string{"s", "u"}, plan.Names...)); err != nil {
		return err
	}
	row := make([]string, 2+plan.Dim)
	n, err := rep.RepairStream(stream, func(r otfair.Record) error {
		row[0] = strconv.Itoa(r.S)
		row[1] = strconv.Itoa(r.U)
		for k, v := range r.X {
			row[2+k] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		return cw.Write(row)
	})
	if err != nil {
		return err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	d := rep.Diagnostics()
	fmt.Printf("repaired %d records (%d values; %d clamped, %d empty-row fallbacks) -> %s\n",
		n, d.Repaired, d.Clamped, d.EmptyRowFallbacks, *outPath)
	return nil
}

func runEvaluate(args []string) error {
	fs := flag.NewFlagSet("evaluate", flag.ExitOnError)
	var (
		inPath  = fs.String("in", "", "CSV to evaluate (required)")
		estName = fs.String("estimator", "kde", "E estimator: kde, histogram, plugin")
	)
	fs.Parse(args)
	if *inPath == "" {
		return fmt.Errorf("evaluate requires -in")
	}
	est, err := fairmetrics.ParseEstimator(*estName)
	if err != nil {
		return err
	}
	f, err := os.Open(*inPath)
	if err != nil {
		return err
	}
	defer f.Close()
	tbl, err := otfair.ReadCSV(f)
	if err != nil {
		return err
	}
	res, err := otfair.ComputeMetric(tbl, otfair.MetricConfig{Estimator: est})
	if err != nil {
		return err
	}
	fmt.Printf("records: %d, features: %d, estimator: %s\n", tbl.Len(), tbl.Dim(), est)
	for k, e := range res.PerFeature {
		fmt.Printf("  E[%s] = %.6f\n", tbl.Names()[k], e)
	}
	fmt.Printf("  E (aggregate) = %.6f\n", res.Aggregate)
	for _, d := range res.Details {
		fmt.Printf("    u=%d %s: E_u=%.6f (Pr[u]=%.3f, n0=%d, n1=%d)\n",
			d.U, tbl.Names()[d.Feature], d.EU, d.WeightU, d.N0, d.N1)
	}
	return nil
}
