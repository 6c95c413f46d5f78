package arch

import (
	"math"
	"testing"

	"pixel/internal/cnn"
)

func TestConfigValidation(t *testing.T) {
	if _, err := NewConfig(EE, 4, 8); err != nil {
		t.Fatal(err)
	}
	bad := []struct{ l, b int }{{0, 8}, {65, 8}, {4, 0}, {4, 65}}
	for _, c := range bad {
		if _, err := NewConfig(EE, c.l, c.b); err == nil {
			t.Errorf("lanes=%d bits=%d should fail", c.l, c.b)
		}
	}
	if _, err := NewConfig(Design(9), 4, 8); err == nil {
		t.Error("unknown design should fail")
	}
	c := MustConfig(EE, 4, 8)
	c.Cal = nil
	if err := c.Validate(); err == nil {
		t.Error("nil calibration should fail")
	}
}

func TestMustConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustConfig(EE, 0, 0)
}

func TestDesignString(t *testing.T) {
	if EE.String() != "EE" || OE.String() != "OE" || OO.String() != "OO" {
		t.Error("design names wrong")
	}
	if Design(9).String() == "" {
		t.Error("unknown design should render")
	}
	if len(Designs()) != 3 {
		t.Error("Designs() should list all three")
	}
}

func TestCalibrationValidate(t *testing.T) {
	if err := DefaultCal().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Calibration){
		func(c *Calibration) { c.MRRSwitchPerBit = 0 },
		func(c *Calibration) { c.EEMulBitCycle = 0 },
		func(c *Calibration) { c.OEAddOverhead = 0.9 },
		func(c *Calibration) { c.OOResidualAddFraction = 1.5 },
		func(c *Calibration) { c.LaserWallPlug = 0 },
		func(c *Calibration) { c.OOLaunchPower = c.OELaunchPower / 2 },
		func(c *Calibration) { c.OpticalRate = 0 },
		func(c *Calibration) { c.TanhPerEval = 0 },
	}
	for i, m := range mutations {
		c := *DefaultCal()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestOperandsPerBurstAndConcurrency(t *testing.T) {
	c := MustConfig(EE, 4, 16)
	if c.OperandsPerBurst() != 2 {
		t.Errorf("opb = %v, want 2", c.OperandsPerBurst())
	}
	if c.ConcurrentOps() != 32 {
		t.Errorf("concurrent = %v, want 32", c.ConcurrentOps())
	}
	half := MustConfig(EE, 4, 4)
	if half.OperandsPerBurst() != 0.5 {
		t.Errorf("opb at B=4 = %v, want 0.5", half.OperandsPerBurst())
	}
}

func TestAccumulatorWidth(t *testing.T) {
	// 2*P0 + log2(L^2) + log2(opb): 16 + 4 + 1.
	if w := MustConfig(EE, 4, 16).AccumulatorWidth(); w != 21 {
		t.Errorf("W(4,16) = %d, want 21", w)
	}
	// Narrow bursts have no packing headroom.
	if w := MustConfig(EE, 4, 1).AccumulatorWidth(); w != 20 {
		t.Errorf("W(4,1) = %d, want 20", w)
	}
}

func TestDeviceCensusPaperWorkedExample(t *testing.T) {
	// Section IV-C: the 4-lane ensemble has 128 MRRs (64 double filters).
	c := DeviceCensus(MustConfig(OE, 4, 4))
	if c.MRRFilterRings != 128 {
		t.Errorf("filter rings = %d, want 128", c.MRRFilterRings)
	}
	if c.ModulatorRings != 16 {
		t.Errorf("modulator rings = %d, want 16", c.ModulatorRings)
	}
	if c.MZIs != 0 {
		t.Error("OE has no MZIs")
	}
}

func TestDeviceCensusByDesign(t *testing.T) {
	ee := DeviceCensus(MustConfig(EE, 8, 8))
	if ee.TotalRings() != 0 || ee.ANDArrays != 64 || ee.Accumulators != 64 || ee.ActUnits != 8 {
		t.Errorf("EE census wrong: %+v", ee)
	}
	oo := DeviceCensus(MustConfig(OO, 8, 8))
	if oo.MZIs != 64*NativePrecision {
		t.Errorf("OO MZIs = %d, want %d", oo.MZIs, 64*NativePrecision)
	}
	if oo.Ladders != 64 {
		t.Errorf("OO ladders = %d, want 64", oo.Ladders)
	}
	if oo.Accumulators >= DeviceCensus(MustConfig(OE, 8, 8)).Accumulators {
		t.Error("OO should keep fewer electrical accumulators than OE")
	}
}

// --- Calibration-point assertions (L=4, B=16, the paper's Table II
// operating point). Bands are chosen to contain both the paper's number
// and the frozen model's; a constant change that leaves the band fails.

func TestOpticalMultiplySavingBand(t *testing.T) {
	ee := PerOp(MustConfig(EE, 4, 16))
	oe := PerOp(MustConfig(OE, 4, 16))
	ratio := oe.Mul / ee.Mul
	// Paper: optical mul = 5.1% of EE mul.
	if ratio < 0.035 || ratio > 0.065 {
		t.Errorf("optical/EE multiply ratio = %.3f, want ~0.051 (band [0.035,0.065])", ratio)
	}
}

func TestOOAccumulationSavingBand(t *testing.T) {
	oe := PerOp(MustConfig(OE, 4, 16))
	oo := PerOp(MustConfig(OO, 4, 16))
	ratio := oo.Add / oe.Add
	// Paper: OO accumulation 53.8% cheaper than OE -> ratio ~0.46.
	if ratio < 0.38 || ratio > 0.54 {
		t.Errorf("OO/OE accumulate ratio = %.3f, want ~0.46 (band [0.38,0.54])", ratio)
	}
}

func TestCommAndLaserRatios(t *testing.T) {
	ee := PerOp(MustConfig(EE, 4, 16))
	oe := PerOp(MustConfig(OE, 4, 16))
	oo := PerOp(MustConfig(OO, 4, 16))
	if r := oe.Comm / ee.Comm; r < 0.75 || r > 0.95 {
		t.Errorf("optical/EE comm ratio = %.3f, want ~0.85", r)
	}
	// Table II: OO laser ~1.5x OE laser.
	if r := oo.Laser / oe.Laser; r < 1.3 || r > 1.7 {
		t.Errorf("OO/OE laser ratio = %.3f, want ~1.5", r)
	}
	if ee.Laser != 0 || ee.OtoE != 0 {
		t.Error("EE has no laser or o/e energy")
	}
}

// opLatency is the effective per-operation latency [s]: the round time
// divided by the operations in flight, the quantity whose B-dependence
// Figure 8 plots.
func opLatency(cfg Config) float64 {
	return RoundTime(cfg) / cfg.ConcurrentOps()
}

func TestEELatencyMonotoneInBits(t *testing.T) {
	prev := math.Inf(1)
	for _, b := range []int{1, 2, 4, 8, 12, 16, 24, 32} {
		lat := opLatency(MustConfig(EE, 8, b))
		if lat >= prev {
			t.Errorf("EE per-op latency not decreasing at B=%d: %v >= %v", b, lat, prev)
		}
		prev = lat
	}
}

func TestOpticalLatencyUShaped(t *testing.T) {
	for _, d := range []Design{OE, OO} {
		bits := []int{1, 2, 4, 8, 12, 16, 24, 32}
		lats := make([]float64, len(bits))
		for i, b := range bits {
			lats[i] = opLatency(MustConfig(d, 8, b))
		}
		minIdx := 0
		for i, v := range lats {
			if v < lats[minIdx] {
				minIdx = i
			}
		}
		if minIdx == 0 || minIdx == len(bits)-1 {
			t.Errorf("%v latency should have an interior minimum, got index %d (%v)", d, minIdx, lats)
		}
		if lats[len(lats)-1] <= lats[minIdx] {
			t.Errorf("%v latency should rise after the minimum", d)
		}
	}
}

func TestZFNetConv2LatencyGaps(t *testing.T) {
	// Paper Figure 9: at 8 lanes / 8 bits, Conv2 is 31.9% faster on OO
	// than EE and 18.6% faster than OE.
	zf := cnn.ZFNet()
	lat := map[Design]float64{}
	for _, d := range Designs() {
		c, err := CostNetwork(zf, MustConfig(d, 8, 8))
		if err != nil {
			t.Fatal(err)
		}
		lat[d] = c.Layers[1].Latency
	}
	vsEE := 1 - lat[OO]/lat[EE]
	vsOE := 1 - lat[OO]/lat[OE]
	if vsEE < 0.25 || vsEE > 0.40 {
		t.Errorf("OO vs EE Conv2 speedup = %.1f%%, want ~31.9%% (band [25,40])", 100*vsEE)
	}
	if vsOE < 0.12 || vsOE > 0.28 {
		t.Errorf("OO vs OE Conv2 speedup = %.1f%%, want ~18.6%% (band [12,28])", 100*vsOE)
	}
}

func TestHeadlineEDPImprovements(t *testing.T) {
	// Paper Section V-B3: at 4 lanes / 16 bits-lane, geomean EDP across
	// the six CNNs improves 48.4% (OE) and 73.9% (OO) over EE.
	geo := func(d Design) float64 {
		cfg := MustConfig(d, 4, 16)
		logSum := 0.0
		for _, net := range cnn.All() {
			c, err := CostNetwork(net, cfg)
			if err != nil {
				t.Fatal(err)
			}
			logSum += math.Log(c.EDP())
		}
		return math.Exp(logSum / 6)
	}
	ee, oe, oo := geo(EE), geo(OE), geo(OO)
	oeImp := 1 - oe/ee
	ooImp := 1 - oo/ee
	if oeImp < 0.42 || oeImp > 0.60 {
		t.Errorf("OE EDP improvement = %.1f%%, want ~48.4%% (band [42,60])", 100*oeImp)
	}
	if ooImp < 0.68 || ooImp > 0.86 {
		t.Errorf("OO EDP improvement = %.1f%%, want ~73.9%% (band [68,86])", 100*ooImp)
	}
	if oo >= oe {
		t.Error("OO must beat OE on EDP at the calibration point")
	}
}

func TestOpticalWinsEnergyWhenBitsExceedLanes(t *testing.T) {
	// Paper Section V-B1: "Both OE and OO designs begin to outperform
	// EE when the number of bits/lane is greater than the number of
	// lanes."
	for _, lanes := range []int{4, 8} {
		highB := 4 * lanes
		ee := PerOp(MustConfig(EE, lanes, highB)).Total()
		oe := PerOp(MustConfig(OE, lanes, highB)).Total()
		oo := PerOp(MustConfig(OO, lanes, highB)).Total()
		if oe >= ee || oo >= ee {
			t.Errorf("lanes=%d bits=%d: optical (%g, %g) should beat EE (%g)", lanes, highB, oe, oo, ee)
		}
		if oo >= oe {
			t.Errorf("lanes=%d bits=%d: OO (%g) should beat OE (%g) at high bits/lane", lanes, highB, oo, oe)
		}
	}
}

func TestAreaOrdering(t *testing.T) {
	// Figure 6: EE smallest, OO much larger than OE (MZI-dominated).
	for _, lanes := range []int{2, 4, 8, 16} {
		ee := Area(MustConfig(EE, lanes, 4)).Total()
		oe := Area(MustConfig(OE, lanes, 4)).Total()
		oo := Area(MustConfig(OO, lanes, 4)).Total()
		if !(ee < oe && oe < oo) {
			t.Errorf("lanes=%d: area ordering EE(%g) < OE(%g) < OO(%g) violated", lanes, ee, oe, oo)
		}
		if oo < 5*oe {
			t.Errorf("lanes=%d: OO area should dwarf OE (MZIs), got %gx", lanes, oo/oe)
		}
	}
}

func TestOOAreaIncludesInterStageWaveguides(t *testing.T) {
	a := Area(MustConfig(OO, 4, 4))
	if a.Waveguides <= 0 {
		t.Fatal("OO area must include the inter-stage waveguide routing")
	}
	// The ~6.6 mm matched paths are a major contributor — at least
	// comparable to the MZI devices themselves.
	if a.Waveguides < a.MZIs/10 {
		t.Errorf("waveguide area %g implausibly small next to MZIs %g", a.Waveguides, a.MZIs)
	}
	// OE has no chains.
	if Area(MustConfig(OE, 4, 4)).Waveguides != 0 {
		t.Error("OE has no accumulation waveguides")
	}
}

func TestAreaGrowsWithLanes(t *testing.T) {
	for _, d := range Designs() {
		prev := 0.0
		for _, lanes := range []int{2, 4, 8, 16} {
			a := Area(MustConfig(d, lanes, 4)).Total()
			if a <= prev {
				t.Errorf("%v: area should grow with lanes", d)
			}
			prev = a
		}
	}
}

func TestEDPFallsWithLanesProperty(t *testing.T) {
	// More lanes mean quadratically more parallel streams; the per-op
	// energy grows only mildly (EE wiring, optical tuning), so network
	// EDP must fall monotonically with the lane count for every design.
	for _, d := range Designs() {
		prev := math.Inf(1)
		for _, lanes := range []int{2, 4, 8, 16} {
			c, err := CostNetwork(cnn.AlexNet(), MustConfig(d, lanes, 8))
			if err != nil {
				t.Fatal(err)
			}
			if c.EDP() >= prev {
				t.Errorf("%v: EDP should fall with lanes at %d", d, lanes)
			}
			prev = c.EDP()
		}
	}
}

func TestBreakdownAlgebra(t *testing.T) {
	a := Breakdown{1, 2, 3, 4, 5, 6}
	b := Breakdown{10, 20, 30, 40, 50, 60}
	sum := a.Plus(b)
	if sum.Total() != 11+22+33+44+55+66 {
		t.Errorf("Plus/Total = %v", sum.Total())
	}
	if s := a.Scale(2); s.Mul != 2 || s.Laser != 12 {
		t.Errorf("Scale = %+v", s)
	}
}

func TestCostNetworkStructure(t *testing.T) {
	net := cnn.LeNet()
	c, err := CostNetwork(net, MustConfig(OO, 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Layers) != len(net.Layers) {
		t.Errorf("layer cost count %d != %d", len(c.Layers), len(net.Layers))
	}
	var sumLat float64
	var sumE Breakdown
	for _, lc := range c.Layers {
		sumLat += lc.Latency
		sumE = sumE.Plus(lc.Energy)
		if lc.Rounds < 1 {
			t.Errorf("layer %s rounds %v < 1", lc.Layer, lc.Rounds)
		}
	}
	if math.Abs(sumLat-c.Latency) > 1e-12*c.Latency {
		t.Error("network latency should equal the layer sum")
	}
	if math.Abs(sumE.Total()-c.Energy.Total()) > 1e-9*c.Energy.Total() {
		t.Error("network energy should equal the layer sum")
	}
	if c.EDP() != c.Energy.Total()*c.Latency {
		t.Error("EDP definition violated")
	}
}

func TestCostNetworkRejectsInvalid(t *testing.T) {
	cfg := MustConfig(EE, 4, 8)
	cfg.Lanes = 0
	if _, err := CostNetwork(cnn.LeNet(), cfg); err == nil {
		t.Error("invalid config should error")
	}
	if _, err := CostNetwork(cnn.Network{}, MustConfig(EE, 4, 8)); err == nil {
		t.Error("invalid network should error")
	}
}

func TestEnergyScalesWithWork(t *testing.T) {
	// VGG16 does far more work than LeNet: every design must charge
	// more energy and time for it.
	for _, d := range Designs() {
		cfg := MustConfig(d, 4, 8)
		big, err := CostNetwork(cnn.VGG16(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		small, err := CostNetwork(cnn.LeNet(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if big.Energy.Total() <= small.Energy.Total() || big.Latency <= small.Latency {
			t.Errorf("%v: VGG16 should cost more than LeNet", d)
		}
	}
}
