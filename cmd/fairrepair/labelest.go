package main

import (
	"flag"
	"fmt"
	"os"

	"otfair"
)

// runLabelEst implements `fairrepair labelest`: estimate ŝ|u labels for an
// archival CSV whose protected attributes are missing (Section IV
// requirement 5 of the paper). Each record gets the MAP label of the QDA
// posterior fitted on the labelled research CSV.
func runLabelEst(args []string) error {
	fs := flag.NewFlagSet("labelest", flag.ExitOnError)
	var (
		researchPath = fs.String("research", "", "labelled research CSV (required)")
		inPath       = fs.String("in", "", "archival CSV with missing s labels (required)")
		outPath      = fs.String("out", "", "output CSV with estimated labels (required)")
	)
	fs.Parse(args)
	if *researchPath == "" || *inPath == "" || *outPath == "" {
		return fmt.Errorf("labelest requires -research, -in and -out")
	}
	rf, err := os.Open(*researchPath)
	if err != nil {
		return err
	}
	research, err := otfair.ReadCSV(rf)
	rf.Close()
	if err != nil {
		return err
	}
	af, err := os.Open(*inPath)
	if err != nil {
		return err
	}
	archive, err := otfair.ReadCSV(af)
	af.Close()
	if err != nil {
		return err
	}
	qda, err := otfair.NewQDA(research)
	if err != nil {
		return err
	}
	labelled := archive.Clone()
	for i := range labelled.Records() {
		rec := &labelled.Records()[i]
		if rec.S, err = qda.Classify(*rec); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	out, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := labelled.WriteCSV(out); err != nil {
		return err
	}
	// If the input happened to carry some true labels, report agreement.
	known := 0
	for _, rec := range archive.Records() {
		if rec.S != otfair.SUnknown {
			known++
		}
	}
	fmt.Printf("labelled %d records -> %s\n", labelled.Len(), *outPath)
	if known > 0 {
		acc, err := qda.Accuracy(archive)
		if err == nil {
			fmt.Printf("agreement with the %d pre-labelled records: %.3f\n", known, acc)
		}
	}
	return nil
}
