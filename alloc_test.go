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
