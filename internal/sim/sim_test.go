package sim

import (
	"math"
	"testing"

	"pixel/internal/arch"
	"pixel/internal/cnn"
	"pixel/internal/interconnect"
	"pixel/internal/phy"
)

func newSim(t *testing.T, opt Options) *Sim {
	t.Helper()
	g, err := interconnect.NewGrid(4, 4, 4, 10*phy.Gigahertz)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, arch.MustConfig(arch.OO, 4, 8), opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	g, _ := interconnect.NewGrid(2, 2, 4, 10*phy.Gigahertz)
	badCfg := arch.MustConfig(arch.EE, 4, 8)
	badCfg.Lanes = 0
	if _, err := New(g, badCfg, Options{}); err == nil {
		t.Error("invalid config should error")
	}
	if _, err := New(g, arch.MustConfig(arch.EE, 4, 8), Options{NeuronBits: -1}); err == nil {
		t.Error("negative option should error")
	}
}

func TestRunLayerMatchesAnalyticBound(t *testing.T) {
	s := newSim(t, Options{})
	l := cnn.LeNet().Layers[0]
	st, err := s.RunLayer(l)
	if err != nil {
		t.Fatal(err)
	}
	bound := s.AnalyticBound(l)
	// The event simulation of the two-stage pipeline should land on
	// the analytic bound (same model, played out), within batching
	// rounding.
	if math.Abs(st.MakespanS-bound)/bound > 0.02 {
		t.Errorf("simulated %v vs analytic %v", st.MakespanS, bound)
	}
	if st.Rounds < 1 {
		t.Error("rounds must be at least 1")
	}
}

func TestComputeBoundLayerSaturatesTiles(t *testing.T) {
	// With the OO config's ~44 ns rounds vs sub-ns broadcasts, compute
	// binds: tile occupancy ~100%, waveguide mostly idle.
	s := newSim(t, Options{})
	st, err := s.RunLayer(cnn.VGG16().Layers[2])
	if err != nil {
		t.Fatal(err)
	}
	if st.Bottleneck != "compute" {
		t.Errorf("bottleneck = %s, want compute", st.Bottleneck)
	}
	if st.ComputeBusyFrac < 0.95 {
		t.Errorf("compute busy = %v, want ~1", st.ComputeBusyFrac)
	}
	if st.BroadcastBusyFrac > 0.2 {
		t.Errorf("broadcast busy = %v, want small", st.BroadcastBusyFrac)
	}
}

func TestBroadcastBoundWhenPayloadHuge(t *testing.T) {
	// Force a broadcast-bound pipeline with an absurd payload.
	s := newSim(t, Options{NeuronBits: 1 << 14})
	st, err := s.RunLayer(cnn.LeNet().Layers[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Bottleneck != "broadcast" {
		t.Errorf("bottleneck = %s, want broadcast", st.Bottleneck)
	}
	if st.BroadcastBusyFrac < 0.95 {
		t.Errorf("broadcast busy = %v, want ~1", st.BroadcastBusyFrac)
	}
}

func TestDoubleBufferingHelps(t *testing.T) {
	l := cnn.LeNet().Layers[1]
	with := newSim(t, Options{NeuronBits: 4096})
	without := newSim(t, Options{NeuronBits: 4096, DisableDoubleBuffer: true})
	a, err := with.RunLayer(l)
	if err != nil {
		t.Fatal(err)
	}
	b, err := without.RunLayer(l)
	if err != nil {
		t.Fatal(err)
	}
	if a.MakespanS >= b.MakespanS {
		t.Errorf("double buffering should shorten the makespan: %v vs %v", a.MakespanS, b.MakespanS)
	}
	// Serialized: makespan ~ rounds*(b+c); overlapped: ~ rounds*max(b,c).
	bound := without.AnalyticBound(l)
	if math.Abs(b.MakespanS-bound)/bound > 0.02 {
		t.Errorf("serialized makespan %v vs analytic %v", b.MakespanS, bound)
	}
}

func TestLargeLayerBatching(t *testing.T) {
	// VGG16 Conv2 needs ~29M rounds on this grid; the simulator must
	// batch rather than explode.
	s := newSim(t, Options{MaxEvents: 10_000})
	st, err := s.RunLayer(cnn.VGG16().Layers[1])
	if err != nil {
		t.Fatal(err)
	}
	if st.RoundsPerStep <= 1 {
		t.Errorf("expected batching, got per-step %v", st.RoundsPerStep)
	}
	// Batched simulation still lands on the analytic bound.
	bound := s.AnalyticBound(cnn.VGG16().Layers[1])
	if math.Abs(st.MakespanS-bound)/bound > 0.05 {
		t.Errorf("batched makespan %v vs analytic %v", st.MakespanS, bound)
	}
}

func TestRunNetwork(t *testing.T) {
	s := newSim(t, Options{})
	stats, total, err := s.RunNetwork(cnn.LeNet())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != len(cnn.LeNet().Layers) {
		t.Errorf("stats = %d layers", len(stats))
	}
	var sum float64
	for _, st := range stats {
		sum += st.MakespanS
	}
	if math.Abs(sum-total) > 1e-12*total {
		t.Error("network total must equal the layer sum")
	}
	if _, _, err := s.RunNetwork(cnn.Network{}); err == nil {
		t.Error("invalid network should error")
	}
}

func TestRunLayerRejectsInvalid(t *testing.T) {
	s := newSim(t, Options{})
	if _, err := s.RunLayer(cnn.Layer{Name: "bad", Type: cnn.Conv}); err == nil {
		t.Error("invalid layer should error")
	}
}
