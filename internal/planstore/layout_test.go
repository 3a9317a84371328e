package planstore

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"otfair/internal/blind"
	"otfair/internal/core"
)

// TestOnDiskLayout pins the store's on-disk contract through the public
// API: the relative path of every file each namespace writes, and the
// bytes of artefacts and refs. Stores written by earlier builds must keep
// loading, so a namespace may be retired (a `designs/` directory of link
// files from older builds is ignored) but never change its files.
func TestOnDiskLayout(t *testing.T) {
	root := t.TempDir()
	st, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cals, err := OpenCalibrations(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	research, err := OpenResearch(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	refs, err := OpenRefs(root, nil)
	if err != nil {
		t.Fatal(err)
	}

	tbl := designTestResearch(t, 90)
	plan, err := core.Design(tbl, core.Options{NQ: 12})
	if err != nil {
		t.Fatal(err)
	}
	planID, _, err := st.Put(plan)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := blind.NewCalibration(plan, tbl)
	if err != nil {
		t.Fatal(err)
	}
	calID, _, err := cals.Put(cal)
	if err != nil {
		t.Fatal(err)
	}
	researchID, _, err := research.Put(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if err := refs.CompareAndSwap(planID, planID, calID); err != nil {
		t.Fatal(err)
	}

	var got []string
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || p == root {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if d.IsDir() {
			rel += "/"
		}
		got = append(got, filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		planID + ".json",
		"calibrations/",
		"calibrations/" + calID + ".json",
		"refs/",
		"refs/" + planID + ".ref",
		"research/",
		"research/" + researchID + ".json",
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("store layout:\n got %q\nwant %q", got, want)
	}

	ref := "refs/" + planID + ".ref"
	if raw, err := os.ReadFile(filepath.Join(root, ref)); err != nil {
		t.Fatal(err)
	} else if string(raw) != calID+"\n" {
		t.Errorf("%s holds %q, want %q", ref, raw, calID+"\n")
	}
	// Each artefact file holds exactly the canonical bytes it is keyed by.
	planRaw, err := plan.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	calRaw, err := cal.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	var researchRaw bytes.Buffer
	if err := tbl.WriteCSV(&researchRaw); err != nil {
		t.Fatal(err)
	}
	for rel, want := range map[string][]byte{
		planID + ".json":                   planRaw,
		"calibrations/" + calID + ".json":  calRaw,
		"research/" + researchID + ".json": researchRaw.Bytes(),
	} {
		raw, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want) {
			t.Errorf("%s does not hold the canonical bytes", rel)
		}
	}
}
