package montecarlo

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pixel/internal/arch"
	"pixel/internal/protect"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the Monte-Carlo report goldens")

// TestReportGolden byte-compares whole reports against checked-in
// goldens: LeNet OO unprotected, under tmr and under parity:3, and the
// tiny net whose padded conv exercises the padded lowering. Every trial
// draws its faults from a stateful engine in call order, so any change
// to the order in which inference issues dot products — not just to
// the arithmetic — shows up here as a different report.
func TestReportGolden(t *testing.T) {
	cases := []struct {
		name       string
		net        string
		protection protect.Scheme
	}{
		{"lenet_oo", "lenet", nil},
		{"lenet_oo_tmr", "lenet", protect.TMR()},
		{"lenet_oo_parity3", "lenet", protect.Parity{Retries: 3}},
		{"tiny_oo", "tiny", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, err := BuildNetwork(tc.net)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(context.Background(), Spec{
				Model: net.Model, Input: net.Input, Design: arch.OO,
				Bits: net.Bits, Terms: net.Terms,
				Variation:  DefaultVariationModel(),
				Sigmas:     []float64{0.5, 1, 2},
				Trials:     8,
				Seed:       1,
				Workers:    2,
				Protection: tc.protection,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", tc.name+".golden.json")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update-golden to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("report differs from %s:\n%s", path, got)
			}
		})
	}
}
