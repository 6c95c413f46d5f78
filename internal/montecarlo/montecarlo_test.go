package montecarlo

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"pixel/internal/arch"
	"pixel/internal/bitserial"
	"pixel/internal/qnn"
)

// TestSigmaZeroDegeneracyOnLeNet is the ISSUE's first satellite: a
// perturbed engine whose variances are all zero must run the LeNet
// golden network bit-identically to bitserial.FastEngine, end to end
// through the whole model.
func TestSigmaZeroDegeneracyOnLeNet(t *testing.T) {
	net, err := BuildNetwork("lenet")
	if err != nil {
		t.Fatal(err)
	}
	fast, err := bitserial.NewFastEngine(net.Bits, net.Terms)
	if err != nil {
		t.Fatal(err)
	}
	want, err := net.Model.Run(net.Input, stripesDotter{fast})
	if err != nil {
		t.Fatal(err)
	}

	// Sample a σ=0 perturbation exactly the way Run does, map it to
	// rates, and drive the perturbed engine through the same model.
	model := DefaultVariationModel().Scale(0)
	pert := model.Sample(rand.New(rand.NewSource(trialSeed(1, 0, streamPerturb))))
	rates, err := model.Rates(pert, arch.OO)
	if err != nil {
		t.Fatal(err)
	}
	if !rates.Zero() {
		t.Fatalf("σ=0 rates %+v, want zero", rates)
	}
	pe, err := bitserial.NewPerturbedEngine(net.Bits, net.Terms, rates,
		rand.New(rand.NewSource(2)), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := net.Model.Run(net.Input, stripesDotter{pe})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("σ=0 out[%d] = %d, want %d (perturbed engine not degenerate)",
				i, got.Data[i], want.Data[i])
		}
	}
	if pe.InjectedFlips() != 0 {
		t.Fatalf("σ=0 engine injected %d flips", pe.InjectedFlips())
	}

	// And through the full Monte-Carlo path: every σ=0 trial yields.
	rep, err := RunState(context.Background(), Spec{
		Model: net.Model, Input: net.Input, Design: arch.OO,
		Bits: net.Bits, Terms: net.Terms,
		Variation: DefaultVariationModel(),
		Sigmas:    []float64{0},
		Trials:    8,
		Seed:      1,
	}, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Points[0]
	if p.Yield != 1 || p.ArgmaxRate != 1 || p.MaxMismatch != 0 || p.CleanTrials != 8 {
		t.Fatalf("σ=0 point %+v, want full yield with 8 clean trials", p)
	}
	if !reflect.DeepEqual(rep.Baseline, want.Data) {
		t.Fatal("report baseline differs from FastEngine output")
	}
}

func tinySpec(t *testing.T) Spec {
	t.Helper()
	net, err := BuildNetwork("tiny")
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Model: net.Model, Input: net.Input, Design: arch.OO,
		Bits: net.Bits, Terms: net.Terms,
		Variation: DefaultVariationModel(),
		Sigmas:    []float64{0, 0.5, 1, 2, 4},
		Trials:    24,
		Seed:      7,
	}
}

// TestDeterministicAcrossWorkers is the ISSUE's second satellite: the
// same root seed must produce the identical report at Workers = 1, 4
// and GOMAXPROCS. Run under -race this also proves the trial pool
// clean.
func TestDeterministicAcrossWorkers(t *testing.T) {
	spec := tinySpec(t)
	var ref *Report
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		spec.Workers = w
		rep, err := RunState(context.Background(), spec, nil, Hooks{})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = rep
			continue
		}
		if !reflect.DeepEqual(rep, ref) {
			t.Fatalf("workers=%d report differs:\n%+v\nwant\n%+v", w, rep.Points, ref.Points)
		}
	}
}

// TestYieldCurveDegradesMonotonically pins the common-random-numbers
// design: for a fixed seed, yield never recovers as σ grows, and the
// curve actually moves (full yield at σ=0, lossy at the top).
func TestYieldCurveDegradesMonotonically(t *testing.T) {
	spec := tinySpec(t)
	spec.Sigmas = []float64{0, 0.5, 1, 1.5, 2, 3, 4, 5}
	spec.Trials = 48
	rep, err := RunState(context.Background(), spec, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	prev := 2.0
	for _, p := range rep.Points {
		if p.Yield > prev {
			t.Errorf("yield(σ=%g) = %g > yield at previous σ = %g: curve not monotone", p.Sigma, p.Yield, prev)
		}
		prev = p.Yield
	}
	if rep.Points[0].Yield != 1 {
		t.Errorf("σ=0 yield %g, want 1", rep.Points[0].Yield)
	}
	last := rep.Points[len(rep.Points)-1]
	if last.Yield > 0.5 {
		t.Errorf("σ=%g yield %g; variation model too forgiving for the sweep to mean anything", last.Sigma, last.Yield)
	}
	if last.MeanInjectedBER <= 0 {
		t.Errorf("σ=%g injected BER %g, want > 0", last.Sigma, last.MeanInjectedBER)
	}
}

// TestDesignExposureOrdering: at the same σ the immune EE design must
// out-yield OE, which (weakly) out-yields the doubly exposed OO.
func TestDesignExposureOrdering(t *testing.T) {
	spec := tinySpec(t)
	spec.Sigmas = []float64{3}
	spec.Trials = 32
	yields := map[arch.Design]float64{}
	for _, d := range arch.Designs() {
		spec.Design = d
		rep, err := RunState(context.Background(), spec, nil, Hooks{})
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		yields[d] = rep.Points[0].Yield
	}
	if yields[arch.EE] != 1 {
		t.Errorf("EE yield %g, want 1 (immune)", yields[arch.EE])
	}
	if yields[arch.OE] < yields[arch.OO] {
		t.Errorf("OE yield %g < OO yield %g; extra exposure should not help", yields[arch.OE], yields[arch.OO])
	}
	if yields[arch.EE] < yields[arch.OE] {
		t.Errorf("EE yield %g < OE yield %g", yields[arch.EE], yields[arch.OE])
	}
}

// TestRunCancellation: a cancelled context aborts the sweep.
func TestRunCancellation(t *testing.T) {
	spec := tinySpec(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunState(ctx, spec, nil, Hooks{}); err == nil {
		t.Fatal("cancelled context should abort the run")
	}
}

// TestSpecValidation covers the rejection paths.
func TestSpecValidation(t *testing.T) {
	good := tinySpec(t)
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"nil model", func(s *Spec) { s.Model = nil }},
		{"nil input", func(s *Spec) { s.Input = nil }},
		{"no trials", func(s *Spec) { s.Trials = 0 }},
		{"no sigmas", func(s *Spec) { s.Sigmas = nil }},
		{"negative sigma", func(s *Spec) { s.Sigmas = []float64{-1} }},
		{"bad budget", func(s *Spec) { s.ErrorBudget = 1.5 }},
		{"NaN budget", func(s *Spec) { s.ErrorBudget = math.NaN() }},
		{"NaN sigma", func(s *Spec) { s.Sigmas = []float64{0, math.NaN()} }},
		{"infinite sigma", func(s *Spec) { s.Sigmas = []float64{math.Inf(1)} }},
		{"bad design", func(s *Spec) { s.Design = arch.Design(9) }},
		{"bad bits", func(s *Spec) { s.Bits = 0 }},
		{"bits 16", func(s *Spec) { s.Bits = 16 }},
		{"bad variation", func(s *Spec) { s.Variation.RingFWHM = -1 }},
	}
	for _, tc := range cases {
		s := good
		tc.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

// TestBuildNetwork covers the registry.
func TestBuildNetwork(t *testing.T) {
	if _, err := BuildNetwork("no-such-net"); err == nil {
		t.Error("unknown network should error")
	}
	for _, name := range Networks() {
		net, err := BuildNetwork(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The advertised geometry must actually run the network.
		fast, err := bitserial.NewFastEngine(net.Bits, net.Terms)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := net.Model.Run(net.Input, stripesDotter{fast}); err != nil {
			t.Fatalf("%s: inference: %v", name, err)
		}
	}
	// Two builds of the same name are the same network (fixed seed).
	a, _ := BuildNetwork("lenet")
	b, _ := BuildNetwork("LeNet")
	if !reflect.DeepEqual(a.Input.Data, b.Input.Data) {
		t.Error("BuildNetwork is not deterministic across calls/case")
	}
}

// TestNetworksFitBatchedEngine pins what the batched engine's single
// column store relies on: every registry network's geometry builds a
// BatchedStripes, so inference and the clean baseline never need
// another store.
func TestNetworksFitBatchedEngine(t *testing.T) {
	for _, name := range Networks() {
		net, err := BuildNetwork(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := bitserial.NewBatchedStripes(net.Bits, net.Terms); err != nil {
			t.Errorf("%s (bits %d, terms %d): %v", name, net.Bits, net.Terms, err)
		}
	}
}

// TestStripesDotterIsNotBatched guards the determinism contract: if
// the adapter ever grows a DotProductsMulti entry point, RunBatch would
// bypass the serial per-pair fallback the stateful engine requires.
func TestStripesDotterIsNotBatched(t *testing.T) {
	var d qnn.Dotter = stripesDotter{}
	if _, ok := d.(qnn.MultiDotter); ok {
		t.Fatal("stripesDotter must stay a plain Dotter")
	}
}
