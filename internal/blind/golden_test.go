package blind

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// goldenRepairHashes pins the exact bytes RepairTable emits — every
// repaired value's bits, both labels and the diagnostic counters — for
// fixed plans and seeds, across the labelled repairer, every blind method,
// both repair options and both plan shapes (the sparse monotone plan and
// the dense Sinkhorn one). The values were recorded before the draw path
// was rewritten around fused alias slots; any change to the RNG stream or
// to the arithmetic of a draw moves them.
var goldenRepairHashes = map[string]string{
	"monotone/dither/draw":            "83bedba0d9677d411188bde5057bc809b4b72cdeff551e37a6d81954b664b5c5",
	"monotone/dither/hard":            "319a7a7d839e2310a7c68b164ebc2b10f10e896f5f985bd59e2cdbfe42d05425",
	"monotone/dither/labelled":        "86379fee47efc52197e45246e74e7c616292abbdd139b3cea82c57d5154e5090",
	"monotone/dither/mix":             "4ad132406ca8a4bcdedd0d1bf0d7dc214cc3f832d5ae383a162b6f6c87ac9668",
	"monotone/dither/pooled":          "420f86e0866e7435286b7eceded9d4ae9d3478a111bd858edb8d51aa8a6436fc",
	"monotone/jitter+dither/draw":     "d9d9c8904c10225931efa744d17c3f6897a00a0ad35c219eeaab05b3120b0c9b",
	"monotone/jitter+dither/hard":     "6e54959bc9e06cc8edf6d1308c5e606d0f4ba2b4a8ecdfaa70c9c203e008642f",
	"monotone/jitter+dither/labelled": "54eed4b35d50f81fb9089288dcf4ebf13c4cf6355802c487b3951d33159f83fa",
	"monotone/jitter+dither/mix":      "188a624106a1b8f96d276f5d8ae2193bdbbd688472875a6db3985e656ec905c1",
	"monotone/jitter+dither/pooled":   "dc08e80f327867ee0e3e7242014cb17b99d6705f3c6dd82eda961613be40d390",
	"monotone/jitter/draw":            "354e0968dad71217d6301d51490dc30ebe16ab1a2b3e483a522799e29480f5e3",
	"monotone/jitter/hard":            "62b3e20191080edbb972ab9f9d7fdfc0570f4605aa0b7ea2533ef820154ef62a",
	"monotone/jitter/labelled":        "6a93835d740aa30de34cc9f7142b53789901b1377c249a703c9b0d71881927d4",
	"monotone/jitter/mix":             "71cab5541d661a14e409fa89c22701eaf19e0251d0fcd50954e519b50a560bee",
	"monotone/jitter/pooled":          "a2aa7c65ebfd4e61fa9aeb895709a416c617fd804d400737945157c41381c10d",
	"monotone/plain/draw":             "a56c4500643804d2b3e07881d527966c15ee22dac67143ae80aafe86c83e8221",
	"monotone/plain/hard":             "a0e24205d152694ae820b628672c9e6e7d75de5935ee29830c4b77779251baca",
	"monotone/plain/labelled":         "4d7b5cf905ab6abb280765b753db5bbc03bd63e60b928333e409a0367f62e80b",
	"monotone/plain/mix":              "ad9ec2120846172fe9962f5301a86c5fc3764ef6d88a12d21ede61b922831165",
	"monotone/plain/pooled":           "72a14be44f349c86714865fc4c4582458a32764a326bf02806f097ba50de5b76",
	"sinkhorn/dither/draw":            "272ee6fd19c1e016338cf03bdc202fdd03e5d87e3d6b4670d77dda39ac88a036",
	"sinkhorn/dither/hard":            "cb32011c502c9ff52df570cbcd1319c3ade472d48f15338c12534dc52895f5b0",
	"sinkhorn/dither/labelled":        "16f55e780c9d0fc48aa6c7f33c46ccd8551b1c21aea2a50100f37b3fa13e0e67",
	"sinkhorn/dither/mix":             "1d1c2338dcf04c8b73859d19a24ccd5ef2f652c7e822da41f3905bf7bf6ee1af",
	"sinkhorn/dither/pooled":          "96e90379d9964bdfeb3bc9a77505a6e341fcf35d272dc096faf976d9a7a76a01",
	"sinkhorn/jitter+dither/draw":     "ac1cdb0506e1f27560dbffdcfc227c3b2ca788c9c669e3959e13356d42d3453a",
	"sinkhorn/jitter+dither/hard":     "39311b6a2621931f31bfa474840580d3451342bbd1dc34359be6948dd70cc054",
	"sinkhorn/jitter+dither/labelled": "0ce4b0508f00092912b0729d66ac00803aad42835d77110e859a317635b711d0",
	"sinkhorn/jitter+dither/mix":      "81a95da9b2bebe6bfd3f2cd3962a118182db0ca227877af4bae1578fe98b06a3",
	"sinkhorn/jitter+dither/pooled":   "cf7b160503ddd17b3842d70d90ac0b55eee8fd9bd568f10da4b8e8c2c4c98fef",
	"sinkhorn/jitter/draw":            "f463e47a2848de044ad35910d3ec27466b035166101baebb186db89772cc86a6",
	"sinkhorn/jitter/hard":            "459248b12d9966ba9206a1546410163b004e22e669d4bce42345f028f7f8fb09",
	"sinkhorn/jitter/labelled":        "d78243c49633940ef7c20ff8ac636048c00c7b01d00561673e259f8fa5499b64",
	"sinkhorn/jitter/mix":             "96bf139411b2934a3675f72978ddf774611d29d25781eff180ec3fb610edaef0",
	"sinkhorn/jitter/pooled":          "a757f30c0c1f5714d5e078b9340aad71d900e2a46fd154bae96de8410cbf39cb",
	"sinkhorn/plain/draw":             "49ae8818cfca3ba548ed0aed418f016765a3337c9c8e06f727dc655e7f735558",
	"sinkhorn/plain/hard":             "e464bd5168e8ca71a5744fb3b94be79e254fcf29a3d2680c9c4b27b382961ecc",
	"sinkhorn/plain/labelled":         "813abbad65ce84fe079e55b6c43a1f0d7fc91d91630168f87e445b74299b34e1",
	"sinkhorn/plain/mix":              "dce3a85b41240ffc7a2ee31c9e3070bf46e5be48c472c9bcfcb8f67a6842c54d",
	"sinkhorn/plain/pooled":           "7d008c53946ac1f2dd064867a57bf86dffd6ac3f7b70c75b5fac3fe251732637",
}

// hashTable folds a repaired table into h: each record's U, S and the
// float64 bits of every feature, in order.
func hashTable(h hash.Hash, t *dataset.Table) {
	var b [8]byte
	for _, rec := range t.Records() {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(rec.U)))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(int64(rec.S)))
		h.Write(b[:])
		for _, x := range rec.X {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
}

func TestGoldenRepairHashes(t *testing.T) {
	solvers := []struct {
		name string
		opts core.Options
	}{
		{"monotone", core.Options{NQ: 50}},
		{"sinkhorn", core.Options{NQ: 40, Solver: core.SolverSinkhorn}},
	}
	repairOpts := []struct {
		name string
		opts core.RepairOptions
	}{
		{"plain", core.RepairOptions{}},
		{"jitter", core.RepairOptions{Jitter: true}},
		{"dither", core.RepairOptions{KernelDither: true}},
		{"jitter+dither", core.RepairOptions{Jitter: true, KernelDither: true}},
	}
	modes := []string{"labelled", "hard", "draw", "mix", "pooled"}
	got := map[string]string{}
	for _, sv := range solvers {
		research, archive := goldenData(t)
		plan, err := core.Design(research, sv.opts)
		if err != nil {
			t.Fatal(err)
		}
		mixed := mixLabels(t, archive)
		for _, ro := range repairOpts {
			for _, mode := range modes {
				key := fmt.Sprintf("%s/%s/%s", sv.name, ro.name, mode)
				h := sha256.New()
				if mode == "labelled" {
					rp, err := core.NewRepairer(plan, rng.New(7), ro.opts)
					if err != nil {
						t.Fatal(err)
					}
					out, err := rp.RepairTable(archive)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					hashTable(h, out)
					fmt.Fprintf(h, "%+v", rp.Diagnostics())
				} else {
					method, _ := ParseMethod(mode)
					rp, err := New(plan, research, rng.New(7), Options{Method: method, Repair: ro.opts})
					if err != nil {
						t.Fatal(err)
					}
					out, err := rp.RepairTable(mixed)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					hashTable(h, out)
					fmt.Fprintf(h, "%+v %+v", rp.Diagnostics(), rp.Stats())
				}
				got[key] = hex.EncodeToString(h.Sum(nil))
			}
		}
	}
	for key, sum := range got {
		want, ok := goldenRepairHashes[key]
		if !ok {
			t.Errorf("%q: %q, no golden hash", key, sum)
			continue
		}
		if sum != want {
			t.Errorf("%s: hash %s, want %s", key, sum, want)
		}
	}
	if len(got) != len(goldenRepairHashes) {
		t.Errorf("computed %d hashes, %d pinned", len(got), len(goldenRepairHashes))
	}
}

// goldenData is the fixed research/archive pair the golden hashes are
// recorded on: the archive spans more than one RepairSpan block.
func goldenData(t *testing.T) (research, archive *dataset.Table) {
	t.Helper()
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	research, archive, err = sampler.ResearchArchive(rng.New(91), 400, 2500)
	if err != nil {
		t.Fatal(err)
	}
	return research, archive
}
