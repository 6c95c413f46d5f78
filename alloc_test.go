package pixel_test

import (
	"context"
	"testing"

	"pixel"
)

// TestInferSteadyStateAllocs is the zero-alloc hot-path regression
// guard: once the weight packs are cached and the tensor arenas are
// warm, a 64-image LeNet batch must stay under 100 allocations total
// (the pre-arena pipeline cost ~1500 — a tensor per image per layer
// plus per-call weight packing). Serial workers keep the count
// deterministic; the multi-worker path adds only pool-management
// allocations, covered by the benchmark's allocs/op trend.
func TestInferSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	imgs := benchInferImages(t, "lenet", 64)
	spec := pixel.InferSpec{Network: "lenet", Images: imgs, Workers: 1}
	for i := 0; i < 2; i++ { // warm model cache, weight packs, arenas
		if _, err := pixel.InferContext(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	var runErr error
	avg := testing.AllocsPerRun(5, func() {
		if _, err := pixel.InferContext(context.Background(), spec); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if avg >= 100 {
		t.Errorf("steady-state 64-image Infer allocates %.0f per batch, want < 100", avg)
	}
}

// TestInferLaneAllocs pins the lane path's steady state tighter than
// TestInferSteadyStateAllocs: a 64-image batch and a single image each
// cost at most 13 allocations per call. Those are the call's own
// headers (spec, plan, results); the convs' and dense layers' lane
// sources, prepared inputs and output rows all come from pooled
// scratch, so a layer that allocates per call shows up here.
func TestInferLaneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	imgs := benchInferImages(t, "lenet", 64)
	for _, n := range []int{64, 1} {
		spec := pixel.InferSpec{Network: "lenet", Images: imgs[:n], Workers: 1}
		for i := 0; i < 2; i++ {
			if _, err := pixel.InferContext(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
		}
		var runErr error
		avg := testing.AllocsPerRun(10, func() {
			if _, err := pixel.InferContext(context.Background(), spec); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		if avg > 13 {
			t.Errorf("steady-state %d-image Infer allocates %.0f per call, want <= 13", n, avg)
		}
	}
}
