package pixel

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestRobustnessSentinels pins the facade's error contract — the HTTP
// status mapping in internal/server branches on these.
func TestRobustnessSentinels(t *testing.T) {
	good := RobustnessSpec{
		Network: "tiny",
		Design:  OO,
		Sigmas:  []float64{0, 1},
		Trials:  2,
		Seed:    1,
	}
	cases := []struct {
		name string
		mut  func(*RobustnessSpec)
		want error
	}{
		{"unknown network", func(s *RobustnessSpec) { s.Network = "NopeNet" }, ErrUnknownNetwork},
		{"unknown design", func(s *RobustnessSpec) { s.Design = Design(99) }, ErrUnknownDesign},
		{"no trials", func(s *RobustnessSpec) { s.Trials = 0 }, ErrBadSpec},
		{"empty sigmas", func(s *RobustnessSpec) { s.Sigmas = nil }, ErrBadSpec},
		{"negative sigma", func(s *RobustnessSpec) { s.Sigmas = []float64{-1} }, ErrBadSpec},
		{"bad budget", func(s *RobustnessSpec) { s.ErrorBudget = 2 }, ErrBadSpec},
		{"NaN budget", func(s *RobustnessSpec) { s.ErrorBudget = math.NaN() }, ErrBadSpec},
		{"NaN sigma", func(s *RobustnessSpec) { s.Sigmas = []float64{math.NaN()} }, ErrBadSpec},
	}
	for _, tc := range cases {
		spec := good
		tc.mut(&spec)
		if _, err := RobustnessContext(context.Background(), spec); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want errors.Is(%v)", tc.name, err, tc.want)
		}
	}
}

// TestParseProtection pins the CLI selector grammar.
func TestParseProtection(t *testing.T) {
	good := []struct {
		in   string
		want *ProtectionSpec
	}{
		{"", nil},
		{"none", nil},
		{" NONE ", nil},
		{"tmr", &ProtectionSpec{Scheme: "tmr"}},
		{"dmr", &ProtectionSpec{Scheme: "dmr"}},
		{"nmr:5", &ProtectionSpec{Scheme: "nmr", Copies: 5}},
		{"parity", &ProtectionSpec{Scheme: "parity"}},
		{"parity:7", &ProtectionSpec{Scheme: "parity", Retries: 7}},
		{"guardband", &ProtectionSpec{Scheme: "guardband"}},
		{"guardband:16", &ProtectionSpec{Scheme: "guardband", RecalEvery: 16}},
		{" Guardband:16 ", &ProtectionSpec{Scheme: "guardband", RecalEvery: 16}},
	}
	for _, tc := range good {
		got, err := ParseProtection(tc.in)
		if err != nil {
			t.Errorf("ParseProtection(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseProtection(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	bad := []string{
		"ecc",         // unknown scheme
		"tmr:4",       // tmr takes no parameter
		"dmr:2",       // neither does dmr
		"nmr:1",       // below the copy floor
		"nmr:99",      // above the copy ceiling
		"parity:99",   // above the retry ceiling
		"parity:x",    // not an integer
		"guardband:0", // recal interval must be >= 1
		"nmr:",        // empty parameter
		"tmr:3:extra", // trailing junk lands in the parameter
	}
	for _, in := range bad {
		if spec, err := ParseProtection(in); !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseProtection(%q) = %+v, %v; want ErrBadSpec", in, spec, err)
		}
	}
}

// TestRobustnessProtected exercises the paired run end to end through
// the facade: protected curve on the same axis, overheads priced above
// 1 — protection is never free — and the same determinism guarantee as
// the unprotected path.
func TestRobustnessProtected(t *testing.T) {
	spec := RobustnessSpec{
		Network:    "tiny",
		Design:     OO,
		Sigmas:     []float64{0, 3},
		Trials:     8,
		Seed:       3,
		Workers:    1,
		Protection: &ProtectionSpec{Scheme: "guardband"},
	}
	rep, err := RobustnessContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	pr := rep.Protection
	if pr == nil {
		t.Fatal("protected spec produced no protection report")
	}
	if pr.Scheme != "guardband" {
		t.Errorf("scheme %q, want guardband", pr.Scheme)
	}
	if len(pr.Points) != len(rep.Points) {
		t.Fatalf("%d protected points vs %d unprotected", len(pr.Points), len(rep.Points))
	}
	if pr.EnergyOverhead <= 1 {
		t.Errorf("energy overhead %g, want > 1 (no free protection)", pr.EnergyOverhead)
	}
	if pr.LatencyOverhead < 1 || pr.AreaOverhead < 1 {
		t.Errorf("latency %g / area %g overheads below 1", pr.LatencyOverhead, pr.AreaOverhead)
	}
	if pr.MaxRetryFactor < 1 {
		t.Errorf("retry factor %g below 1", pr.MaxRetryFactor)
	}
	if pr.MinYield() < rep.MinYield() {
		t.Errorf("protected min yield %g below unprotected %g on the tiny sweep",
			pr.MinYield(), rep.MinYield())
	}
	spec.Workers = 4
	rep2, err := RobustnessContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Error("protected report differs across worker counts")
	}
	// A bad scheme surfaces the spec sentinel through the facade.
	spec.Protection = &ProtectionSpec{Scheme: "ecc"}
	if _, err := RobustnessContext(context.Background(), spec); !errors.Is(err, ErrBadSpec) {
		t.Errorf("unknown scheme: err = %v, want ErrBadSpec", err)
	}
}

// TestRobustnessRuns exercises the happy path: a small sweep on the
// tiny network with full yield at σ=0 and a bit-identical rerun at a
// different worker count.
func TestRobustnessRuns(t *testing.T) {
	spec := RobustnessSpec{
		Network: "tiny",
		Design:  OO,
		Sigmas:  []float64{0, 2},
		Trials:  8,
		Seed:    3,
		Workers: 1,
	}
	rep, err := RobustnessContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Design != "OO" || rep.Trials != 8 || len(rep.Points) != 2 || len(rep.Baseline) == 0 {
		t.Fatalf("report shape %+v", rep)
	}
	if rep.Points[0].Yield != 1 {
		t.Errorf("σ=0 yield %g, want 1", rep.Points[0].Yield)
	}
	spec.Workers = 4
	rep2, err := RobustnessContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Error("report differs across worker counts")
	}
	if len(RobustnessNetworks()) == 0 {
		t.Error("no robustness networks advertised")
	}
}
