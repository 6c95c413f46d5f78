package pixel_test

import (
	"math"
	"runtime"
	"testing"

	"pixel"
)

// errText renders an error for comparison; nil is "".
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestValidateMatchesConstructors pins that the validation-only entry
// points accept exactly what the job constructors accept and refuse the
// rest with the same error: they are the constructors' own checks, run
// without allocating the job.
func TestValidateMatchesConstructors(t *testing.T) {
	good := pixel.RobustnessSpec{Network: "tiny", Design: pixel.OO, Sigmas: []float64{0, 1}, Trials: 2, Seed: 1}
	specs := map[string]func(*pixel.RobustnessSpec){
		"good":            func(*pixel.RobustnessSpec) {},
		"unknown network": func(s *pixel.RobustnessSpec) { s.Network = "NopeNet" },
		"unknown design":  func(s *pixel.RobustnessSpec) { s.Design = pixel.Design(99) },
		"no trials":       func(s *pixel.RobustnessSpec) { s.Trials = 0 },
		"empty sigmas":    func(s *pixel.RobustnessSpec) { s.Sigmas = nil },
		"negative sigma":  func(s *pixel.RobustnessSpec) { s.Sigmas = []float64{1, -1} },
		"bad budget":      func(s *pixel.RobustnessSpec) { s.ErrorBudget = 2 },
		"bad scheme":      func(s *pixel.RobustnessSpec) { s.Protection = &pixel.ProtectionSpec{Scheme: "nope"} },
		"protected":       func(s *pixel.RobustnessSpec) { s.Protection = &pixel.ProtectionSpec{Scheme: "tmr"} },
	}
	for name, mut := range specs {
		spec := good
		mut(&spec)
		_, jobErr := pixel.NewRobustnessJob(spec)
		if got, want := errText(pixel.ValidateRobustness(spec)), errText(jobErr); got != want {
			t.Errorf("robustness %s: ValidateRobustness = %q, NewRobustnessJob = %q", name, got, want)
		}
	}

	grid := pixel.Grid(pixel.Designs(), []int{4, 8}, []int{4, 8})
	sweeps := []struct {
		name     string
		networks []string
		points   []pixel.Point
	}{
		{"good", []string{"LeNet", "AlexNet"}, grid},
		{"no networks", nil, grid},
		{"no points", []string{"LeNet"}, nil},
		{"unknown first network", []string{"NopeNet", "LeNet"}, grid},
		{"unknown later network", []string{"LeNet", "NopeNet"}, grid},
		{"unknown design", []string{"LeNet"}, []pixel.Point{{Design: pixel.Design(9), Lanes: 4, Bits: 8}}},
		{"bad lanes", []string{"LeNet"}, append(grid, pixel.Point{Design: pixel.OO, Lanes: 0, Bits: 8})},
		{"bad point before bad network", []string{"LeNet", "NopeNet"}, []pixel.Point{{Design: pixel.OO, Lanes: 0, Bits: 8}}},
	}
	eng := pixel.NewEngine(pixel.EngineOptions{})
	for _, tc := range sweeps {
		_, jobErr := eng.NewSweepJob(tc.networks, tc.points)
		if got, want := errText(eng.ValidateSweep(tc.networks, tc.points)), errText(jobErr); got != want {
			t.Errorf("sweep %s: ValidateSweep = %q, NewSweepJob = %q", tc.name, got, want)
		}
		if got, want := errText(pixel.ValidateSweep(tc.networks, tc.points)), errText(jobErr); got != want {
			t.Errorf("sweep %s: pixel.ValidateSweep = %q, NewSweepJob = %q", tc.name, got, want)
		}
	}
}

// allocBytes returns the fewest heap bytes f allocated over a few runs
// (the minimum discounts background allocations from other
// goroutines).
func allocBytes(t *testing.T, f func() error) uint64 {
	t.Helper()
	best := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := f()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestValidationAllocsFlat is the guard on validation cost. The fleet
// coordinator validates every sweep and robustness request (and CI's
// chaos job raises the trial cap 64x), so validation must not allocate
// the trials × σ slot store or the (network × point) job grid: a
// default-cap robustness spec (4096 trials × 256 σ) may allocate no
// more than a 1 × 1 one, and validating a 576-cell sweep stays far
// below what building its job costs.
func TestValidationAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; byte counts are only meaningful without -race")
	}
	sigmas := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i) / 100
		}
		return s
	}
	small := pixel.RobustnessSpec{Network: "lenet", Design: pixel.OO, Sigmas: sigmas(1), Trials: 1, Seed: 1}
	large := small
	large.Sigmas, large.Trials = sigmas(256), 4096
	smallB := allocBytes(t, func() error { return pixel.ValidateRobustness(small) })
	largeB := allocBytes(t, func() error { return pixel.ValidateRobustness(large) })
	if largeB > smallB+4096 {
		t.Errorf("ValidateRobustness allocates %d B at 4096 trials × 256 σ vs %d B at 1 × 1; validation must not grow with trials × σ", largeB, smallB)
	}

	eng := pixel.NewEngine(pixel.EngineOptions{})
	networks := []string{"LeNet", "AlexNet", "VGG16"}
	points := pixel.Grid(pixel.Designs(), []int{1, 2, 4, 8, 16, 24, 32, 64}, []int{1, 2, 4, 6, 8, 10, 12, 16})
	if cells := len(networks) * len(points); cells != 576 {
		t.Fatalf("grid has %d cells, want 576", cells)
	}
	validateB := max(
		allocBytes(t, func() error { return eng.ValidateSweep(networks, points) }),
		allocBytes(t, func() error { return pixel.ValidateSweep(networks, points) }),
	)
	buildB := allocBytes(t, func() error { _, err := eng.NewSweepJob(networks, points); return err })
	if validateB*10 > buildB {
		t.Errorf("ValidateSweep allocates %d B for 576 cells, NewSweepJob %d B; validation must not build the job grid", validateB, buildB)
	}
	t.Logf("robustness validation %d B (1×1) / %d B (4096×256); sweep validation %d B vs job %d B", smallB, largeB, validateB, buildB)
}
