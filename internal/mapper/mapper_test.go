package mapper

import (
	"testing"

	"pixel/internal/arch"
	"pixel/internal/cnn"
	"pixel/internal/interconnect"
	"pixel/internal/phy"
)

func grid4(t *testing.T) *interconnect.Grid {
	t.Helper()
	g, err := interconnect.NewGrid(4, 4, 4, 10*phy.Gigahertz)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMapLayerConvBasics(t *testing.T) {
	g := grid4(t)
	cfg := arch.MustConfig(arch.OO, 4, 8)
	// VGG16 Conv1: 64 filters, 3 channels, E=224.
	l := cnn.VGG16().Layers[0]
	a, err := MapLayer(l, g, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.FilterTiles != 16 {
		t.Errorf("FilterTiles = %d, want 16 (64 filters on 16 tiles)", a.FilterTiles)
	}
	if a.ChannelGroups != 1 {
		t.Errorf("ChannelGroups = %d, want 1 (3 channels fit in 4 lanes)", a.ChannelGroups)
	}
	if a.Utilization != 1 {
		t.Errorf("Utilization = %v, want 1 (64 filters tile evenly over 16)", a.Utilization)
	}
	// Weight volume: 64 filters * 9 * 3 channels * 8 bits.
	if want := float64(64 * 9 * 3 * 8); a.WeightBits != want {
		t.Errorf("WeightBits = %v, want %v", a.WeightBits, want)
	}
	if a.Rounds < 1 {
		t.Error("rounds must be at least 1")
	}
}

func TestMapLayerUnevenFiltersLowerUtilization(t *testing.T) {
	g := grid4(t) // 16 tiles
	cfg := arch.MustConfig(arch.OE, 4, 8)
	// 17 filters on 16 tiles: second wave runs 1/16 full.
	l := cnn.Layer{Name: "odd", Type: cnn.Conv, H: 8, W: 8, C: 4, Pad: 1, R: 3, U: 1, M: 17}
	a, err := MapLayer(l, g, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 17.0 / 32.0
	if a.Utilization != want {
		t.Errorf("Utilization = %v, want %v", a.Utilization, want)
	}
}

func TestMapLayerFC(t *testing.T) {
	g := grid4(t)
	cfg := arch.MustConfig(arch.EE, 4, 8)
	l := cnn.Layer{Name: "fc", Type: cnn.FC, In: 400, Out: 120}
	a, err := MapLayer(l, g, cfg, Options{WeightBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.ChannelGroups != 100 {
		t.Errorf("ChannelGroups = %d, want 100 (400 inputs / 4 lanes)", a.ChannelGroups)
	}
	if want := float64(400 * 120 * 4); a.WeightBits != want {
		t.Errorf("WeightBits = %v, want %v", a.WeightBits, want)
	}
}

func TestMapLayerValidation(t *testing.T) {
	g := grid4(t)
	cfg := arch.MustConfig(arch.EE, 4, 8)
	if _, err := MapLayer(cnn.Layer{Name: "bad", Type: cnn.Conv}, g, cfg, Options{}); err == nil {
		t.Error("invalid layer should error")
	}
	badCfg := cfg
	badCfg.Lanes = 0
	if _, err := MapLayer(cnn.VGG16().Layers[0], g, badCfg, Options{}); err == nil {
		t.Error("invalid config should error")
	}
}

func TestMapNetworkTotals(t *testing.T) {
	g := grid4(t)
	cfg := arch.MustConfig(arch.OO, 4, 8)
	s, err := MapNetwork(cnn.LeNet(), g, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Assignments) != len(cnn.LeNet().Layers) {
		t.Errorf("assignments = %d", len(s.Assignments))
	}
	if s.MakespanS != s.ComputeS+s.PreloadS {
		t.Error("makespan must be compute + preload")
	}
	if s.ComputeS <= 0 || s.PreloadS <= 0 || s.PreloadJ <= 0 {
		t.Errorf("degenerate schedule %+v", s)
	}
	u := s.MeanUtilization()
	if u <= 0 || u > 1 {
		t.Errorf("mean utilization = %v", u)
	}
}

func TestPipelinedMakespanBounds(t *testing.T) {
	g := grid4(t)
	cfg := arch.MustConfig(arch.OO, 4, 8)
	for _, net := range []string{"LeNet", "VGG16", "AlexNet"} {
		n, err := cnn.ByName(net)
		if err != nil {
			t.Fatal(err)
		}
		s, err := MapNetwork(n, g, cfg, Options{Transport: ElectricalPreload})
		if err != nil {
			t.Fatal(err)
		}
		if s.PipelinedMakespanS > s.MakespanS {
			t.Errorf("%s: pipelined (%v) must not exceed sequential (%v)", net, s.PipelinedMakespanS, s.MakespanS)
		}
		if s.PipelinedMakespanS < s.ComputeS {
			t.Errorf("%s: pipelined (%v) cannot beat pure compute (%v)", net, s.PipelinedMakespanS, s.ComputeS)
		}
	}
}

func TestWeightStationaryBeatsStreamingForConv(t *testing.T) {
	// Convolutions reuse each weight E^2 times; pre-loading (the
	// paper's choice) moves orders of magnitude fewer bits than
	// streaming per use.
	g := grid4(t)
	cfg := arch.MustConfig(arch.OO, 4, 8)
	l := cnn.VGG16().Layers[2] // Conv3: high reuse
	st, err := MapLayer(l, g, cfg, Options{Dataflow: WeightStationary})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := MapLayer(l, g, cfg, Options{Dataflow: WeightStreaming})
	if err != nil {
		t.Fatal(err)
	}
	if sm.WeightBits < 1000*st.WeightBits {
		t.Errorf("streaming traffic %.3g should dwarf stationary %.3g for conv layers",
			sm.WeightBits, st.WeightBits)
	}
	// FC layers use each weight once: under the paper's own FC
	// accounting (N_mul = In^2) the streamed traffic is within a small
	// factor of the stored volume.
	fcLayer := cnn.Layer{Name: "fc", Type: cnn.FC, In: 1024, Out: 1024}
	fcSt, err := MapLayer(fcLayer, g, cfg, Options{Dataflow: WeightStationary})
	if err != nil {
		t.Fatal(err)
	}
	fcSm, err := MapLayer(fcLayer, g, cfg, Options{Dataflow: WeightStreaming})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := fcSm.WeightBits / fcSt.WeightBits; ratio > 2 {
		t.Errorf("FC streaming/stationary = %.2f, want ~1 (no reuse)", ratio)
	}
}

func TestStreamingSkipsRFWriteEnergy(t *testing.T) {
	g := grid4(t)
	cfg := arch.MustConfig(arch.OO, 4, 8)
	st, err := MapNetwork(cnn.LeNet(), g, cfg, Options{Dataflow: WeightStationary})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := MapNetwork(cnn.LeNet(), g, cfg, Options{Dataflow: WeightStreaming})
	if err != nil {
		t.Fatal(err)
	}
	// Streaming moves far more bits, so despite skipping RF writes its
	// preload energy is higher for a conv-heavy model.
	if sm.PreloadJ <= st.PreloadJ {
		t.Errorf("streaming preload energy %.3g should exceed stationary %.3g", sm.PreloadJ, st.PreloadJ)
	}
}

func TestPipelinedMakespanFormula(t *testing.T) {
	// Hand-checked: compute (10, 2), preload (3, 8).
	// total = p0 + max(c0, p1) + c1 = 3 + max(10,8) + 2 = 15.
	got := pipelinedMakespan([]float64{10, 2}, []float64{3, 8})
	if got != 15 {
		t.Errorf("pipelinedMakespan = %v, want 15", got)
	}
	// Preload-bound stage: compute (1, 1), preload (3, 8) ->
	// 3 + max(1,8) + 1 = 12.
	if got := pipelinedMakespan([]float64{1, 1}, []float64{3, 8}); got != 12 {
		t.Errorf("preload-bound = %v, want 12", got)
	}
	if got := pipelinedMakespan(nil, nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestMapNetworkRejectsInvalid(t *testing.T) {
	g := grid4(t)
	cfg := arch.MustConfig(arch.EE, 4, 8)
	if _, err := MapNetwork(cnn.Network{}, g, cfg, Options{}); err == nil {
		t.Error("invalid network should error")
	}
}

func TestPhotonicPreloadFasterThanElectrical(t *testing.T) {
	// The paper's suggested extension: streaming weights photonically
	// uses lanes x 10 GHz instead of a word-per-cycle bus.
	g := grid4(t)
	cfg := arch.MustConfig(arch.OO, 4, 8)
	elec, err := MapNetwork(cnn.VGG16(), g, cfg, Options{Transport: ElectricalPreload})
	if err != nil {
		t.Fatal(err)
	}
	phot, err := MapNetwork(cnn.VGG16(), g, cfg, Options{Transport: PhotonicPreload})
	if err != nil {
		t.Fatal(err)
	}
	if phot.PreloadS >= elec.PreloadS {
		t.Errorf("photonic preload (%v) should beat electrical (%v)", phot.PreloadS, elec.PreloadS)
	}
	// Compute time is transport-independent.
	if phot.ComputeS != elec.ComputeS {
		t.Error("compute time must not depend on weight transport")
	}
	if ElectricalPreload.String() != "electrical" || PhotonicPreload.String() != "photonic" {
		t.Error("transport strings wrong")
	}
}

func TestBiggerGridFewerRounds(t *testing.T) {
	small := grid4(t)
	big, err := interconnect.NewGrid(8, 8, 4, 10*phy.Gigahertz)
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.MustConfig(arch.OO, 4, 8)
	l := cnn.VGG16().Layers[2]
	a1, err := MapLayer(l, small, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := MapLayer(l, big, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a2.Rounds >= a1.Rounds {
		t.Errorf("4x the tiles should cut rounds: %v vs %v", a2.Rounds, a1.Rounds)
	}
}
