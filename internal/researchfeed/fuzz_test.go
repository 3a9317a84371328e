package researchfeed_test

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/planstore"
	"otfair/internal/researchfeed"
)

// FuzzResearchSet drives arbitrary bytes across the research-set boundary
// a refit crosses: dataset.ReadCSV, then Validate, then the canonical CSV
// planstore.ResearchStore.Put stores. It must never panic; a rejected
// input fails with a ReadCSV error or a *ValidationError; an accepted one
// holds no NaN or ±Inf feature and round-trips through WriteCSV and
// ReadCSV to identical canonical bytes and fingerprint. Its seeds are
// under testdata/fuzz/FuzzResearchSet.
func FuzzResearchSet(f *testing.F) {
	rs, err := planstore.OpenResearch(f.TempDir(), planstore.Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte, minRecords, wantDim uint8) {
		tbl, err := dataset.ReadCSV(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if err := researchfeed.Validate(tbl, int(minRecords), int(wantDim)); err != nil {
			var verr *researchfeed.ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("Validate rejected with %T %v, want *ValidationError", err, err)
			}
			return
		}
		for i := 0; i < tbl.Len(); i++ {
			for k, v := range tbl.At(i).X {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted record %d holds non-finite feature %d (%v)", i, k, v)
				}
			}
		}
		id, _, err := rs.Put(tbl)
		if err != nil {
			t.Fatalf("storing an accepted set: %v", err)
		}
		var canonical bytes.Buffer
		if err := tbl.WriteCSV(&canonical); err != nil {
			t.Fatal(err)
		}
		if fp := core.FingerprintBytes(canonical.Bytes()); fp != id {
			t.Fatalf("store id %s, want the canonical bytes' fingerprint %s", id, fp)
		}
		again, err := dataset.ReadCSV(bytes.NewReader(canonical.Bytes()))
		if err != nil {
			t.Fatalf("canonical CSV does not read back: %v\n%s", err, canonical.Bytes())
		}
		var round bytes.Buffer
		if err := again.WriteCSV(&round); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(round.Bytes(), canonical.Bytes()) {
			t.Fatalf("canonical CSV changed on a round trip:\n%q\n%q", canonical.Bytes(), round.Bytes())
		}
		if id2, created, err := rs.Put(again); err != nil || id2 != id || created {
			t.Fatalf("round-tripped set stored as %s (created %v, %v), want the existing %s", id2, created, err, id)
		}
	})
}
