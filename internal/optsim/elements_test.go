package optsim

import (
	"math"
	"testing"
	"testing/quick"

	"pixel/internal/photonics"
	"pixel/internal/phy"
)

const launch = 1 * phy.Milliwatt

func TestLedgerAccounting(t *testing.T) {
	l := NewLedger()
	l.Charge(CatMul, 2e-12)
	l.Charge(CatMul, 1e-12)
	l.Charge(CatAdd, 5e-12)
	l.AddLatency(3e-9)
	l.AddLatency(1e-9)
	if got := l.Energy(CatMul); math.Abs(got-3e-12) > 1e-24 {
		t.Errorf("mul energy = %v", got)
	}
	if got := l.Latency(); math.Abs(got-4e-9) > 1e-21 {
		t.Errorf("latency = %v", got)
	}
	bd := l.Breakdown()
	if len(bd) != 2 || bd[CatAdd] != 5e-12 {
		t.Errorf("breakdown = %v", bd)
	}
}

func TestLedgerNilSafe(t *testing.T) {
	var l *Ledger
	l.Charge(CatMul, 1) // must not panic
	l.AddLatency(1)
	if l.Energy(CatMul) != 0 || l.Latency() != 0 {
		t.Error("nil ledger should read as zero")
	}
}

func TestLedgerRejectsNegative(t *testing.T) {
	l := NewLedger()
	defer func() {
		if recover() == nil {
			t.Error("negative charge should panic")
		}
	}()
	l.Charge(CatMul, -1)
}

func TestModulatorProducesOOKAndCharges(t *testing.T) {
	led := NewLedger()
	m := NewModulator(launch, slot)
	s := m.Modulate([]int{1, 0, 1}, 2, led)
	if s.Channel != 2 || s.Slots() != 3 {
		t.Fatalf("bad signal %+v", s)
	}
	if math.Abs(s.Power(0)-launch) > 1e-12*launch || s.Power(1) != 0 {
		t.Errorf("OOK powers wrong: %v, %v", s.Power(0), s.Power(1))
	}
	if led.Energy(CatComm) <= 0 {
		t.Error("modulation energy must be charged to comm")
	}
}

func TestWaveguideRunDelayLossSkew(t *testing.T) {
	led := NewLedger()
	s := NewOOK([]int{1}, launch, slot, 0)
	// 10 mm at 10.45 ps/mm = 104.5 ps: one whole slot + 4.5 ps skew.
	w := photonics.DefaultWaveguide(10 * phy.Millimeter)
	out := WaveguideRun(s, w, led)
	if out.Slots() != 2 {
		t.Fatalf("expected 1 slot of delay, got %d slots", out.Slots())
	}
	if math.Abs(out.Skew-4.5*phy.Picosecond) > 0.1*phy.Picosecond {
		t.Errorf("skew = %v, want ~4.5ps", out.Skew)
	}
	// 10mm at 1.3 dB/cm = 1.3 dB power loss.
	wantP := launch * phy.FromDB(-1.3)
	if math.Abs(out.Power(1)-wantP) > 1e-9*wantP {
		t.Errorf("power after 10mm = %v, want %v", out.Power(1), wantP)
	}
	if math.Abs(led.Latency()-104.5*phy.Picosecond) > 0.1*phy.Picosecond {
		t.Errorf("ledger latency = %v", led.Latency())
	}
}

func TestANDFilterRouting(t *testing.T) {
	led := NewLedger()
	s := NewOOK([]int{1, 1, 0, 1}, launch, slot, 5)
	f := photonics.NewDoubleMRRFilter(5)
	f.On = true
	_, cross := ANDFilter(s, f, led)
	// On-resonance, actuated: pulses cross with low loss.
	if cross.Power(0) < 0.8*launch {
		t.Errorf("cross power = %v, want near launch", cross.Power(0))
	}
	f.On = false
	_, cross = ANDFilter(s, f, led)
	if cross.Power(0) > 0.02*launch {
		t.Errorf("off filter leaks %v to cross", cross.Power(0))
	}
	if led.Energy(CatMul) <= 0 {
		t.Error("AND energy must be charged to mul")
	}
	if led.Latency() <= 0 {
		t.Error("filter delay must be charged")
	}
}

// mziInputs builds the per-bit AND outputs for a neuron word against each
// synapse bit, most-significant synapse bit first, as the OO chain wires
// them.
func mziInputs(neuron, synapse uint64, bits int) []*Signal {
	inputs := make([]*Signal, bits)
	for k := 0; k < bits; k++ {
		sbit := (synapse >> uint(bits-1-k)) & 1 // MSB first
		train := make([]int, bits)
		for t := 0; t < bits; t++ {
			if sbit == 1 && (neuron>>uint(t))&1 == 1 { // LSB-first slots
				train[t] = 1
			}
		}
		inputs[k] = NewOOK(train, launch, slot, 0)
	}
	return inputs
}

func defaultMZIOpts() MZIAccumulateOptions {
	return MZIAccumulateOptions{
		Params:   photonics.DefaultMZIParams(),
		BitRate:  10 * phy.Gigahertz,
		Lossless: true,
	}
}

func TestMZIAccumulateComputesProduct(t *testing.T) {
	// 6 x 13 = 78 — the paper's Section II-B example operands.
	const bits = 4
	inputs := mziInputs(6, 13, bits)
	led := NewLedger()
	out, err := MZIAccumulate(inputs, defaultMZIOpts(), led)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := photonics.NewAmplitudeConverter(launch, bits)
	if err != nil {
		t.Fatal(err)
	}
	conv.Coherent = true
	digits, err := DetectAmplitude(out, conv, led)
	if err != nil {
		t.Fatal(err)
	}
	got, err := WeightedValue(digits)
	if err != nil {
		t.Fatal(err)
	}
	if got != 78 {
		t.Errorf("optical product = %d, want 78 (digits %v)", got, digits)
	}
	if led.Energy(CatAdd) <= 0 || led.Energy(CatOE) <= 0 {
		t.Error("accumulation and conversion energy must be charged")
	}
	if led.Latency() <= 0 {
		t.Error("chain delay must be charged")
	}
}

func TestMZIAccumulateMatchesIntegerMultiplyProperty(t *testing.T) {
	f := func(nRaw, sRaw uint8) bool {
		const bits = 8
		neuron := uint64(nRaw)
		synapse := uint64(sRaw)
		inputs := mziInputs(neuron, synapse, bits)
		out, err := MZIAccumulate(inputs, defaultMZIOpts(), nil)
		if err != nil {
			return false
		}
		conv, err := photonics.NewAmplitudeConverter(launch, bits)
		if err != nil {
			return false
		}
		conv.Coherent = true
		digits, err := DetectAmplitude(out, conv, nil)
		if err != nil {
			return false
		}
		got, err := WeightedValue(digits)
		if err != nil {
			return false
		}
		return got == int64(neuron*synapse)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMZIAccumulateSkewFaultBreaksChain(t *testing.T) {
	opts := defaultMZIOpts()
	opts.StageSkewError = 40 * phy.Picosecond // mis-cut path
	opts.SkewTolerance = 25 * phy.Picosecond
	inputs := mziInputs(6, 13, 4)
	if _, err := MZIAccumulate(inputs, opts, nil); err == nil {
		t.Error("mis-cut inter-stage path must fail synchronization")
	}
}

func TestMZIAccumulateInsertionLossCorruptsDeepChains(t *testing.T) {
	// With real insertion loss, early pulses are attenuated more than
	// late ones; a ladder calibrated on the unit amplitude misreads
	// deep accumulations. This is the physical reason the OO design
	// needs either loss compensation or higher launch power.
	const bits = 8
	opts := defaultMZIOpts()
	opts.Lossless = false
	opts.Params.InsertionLossDB = 3 // exaggerated per-stage loss
	inputs := mziInputs(255, 255, bits)
	out, err := MZIAccumulate(inputs, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	conv, _ := photonics.NewAmplitudeConverter(launch, bits)
	conv.Coherent = true
	powers := out.Powers()
	digits := make([]int, len(powers))
	for i, p := range powers {
		digits[i] = conv.Resolve(p)
	}
	got, _ := WeightedValue(digits)
	if got == int64(255*255) {
		t.Error("lossy chain unexpectedly produced the exact product")
	}
}

func TestMZIAccumulateSOACompensatesLoss(t *testing.T) {
	// The exact configuration that corrupts products in
	// TestMZIAccumulateInsertionLossCorruptsDeepChains, but with an
	// SOA matched to the per-stage loss: the product comes out exact
	// again, at the cost of pump energy.
	const bits = 8
	soa := photonics.DefaultSOA()
	opts := defaultMZIOpts()
	opts.Lossless = false
	opts.Params.InsertionLossDB = 3
	opts.Amplifier = &soa
	inputs := mziInputs(255, 255, bits)
	led := NewLedger()
	out, err := MZIAccumulate(inputs, opts, led)
	if err != nil {
		t.Fatal(err)
	}
	conv, _ := photonics.NewAmplitudeConverter(launch, bits)
	conv.Coherent = true
	digits, err := DetectAmplitude(out, conv, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := WeightedValue(digits)
	if err != nil {
		t.Fatal(err)
	}
	if got != 255*255 {
		t.Errorf("compensated chain = %d, want %d", got, 255*255)
	}
	// The compensation costs pump energy beyond the bare MZI chain.
	bare := NewLedger()
	bareOpts := defaultMZIOpts()
	if _, err := MZIAccumulate(inputs, bareOpts, bare); err != nil {
		t.Fatal(err)
	}
	if led.Energy(CatAdd) <= bare.Energy(CatAdd) {
		t.Error("SOA compensation must charge pump energy")
	}
}

func TestMZIAccumulateInputValidation(t *testing.T) {
	if _, err := MZIAccumulate(nil, defaultMZIOpts(), nil); err == nil {
		t.Error("no inputs should error")
	}
	opts := defaultMZIOpts()
	opts.BitRate = 0
	if _, err := MZIAccumulate(mziInputs(1, 1, 2), opts, nil); err == nil {
		t.Error("zero bit rate should error")
	}
	opts = defaultMZIOpts()
	opts.BitRate = 60 * phy.Gigahertz // arms longer than a bit of flight
	if _, err := MZIAccumulate(mziInputs(1, 1, 2), opts, nil); err == nil {
		t.Error("unsynchronizable rate should error")
	}
}

func TestDetectOOKRoundTrip(t *testing.T) {
	led := NewLedger()
	bits := []int{1, 0, 1, 1, 0, 0, 1, 0}
	s := NewOOK(bits, launch, slot, 0)
	conv, err := photonics.NewOEConverter(launch)
	if err != nil {
		t.Fatal(err)
	}
	got := DetectOOK(s, conv, led)
	for i := range bits {
		if got[i] != bits[i] {
			t.Errorf("bit %d: got %d want %d", i, got[i], bits[i])
		}
	}
	if led.Energy(CatOE) <= 0 {
		t.Error("detection energy must be charged")
	}
}

func TestDetectAmplitudeSaturationError(t *testing.T) {
	// Five coincident unit pulses on a 4-level ladder must error.
	s := NewDark(1, slot, 0)
	s.Amps[0] = complex(5*math.Sqrt(launch), 0)
	conv, _ := photonics.NewAmplitudeConverter(launch, 3)
	conv.Coherent = true
	if _, err := DetectAmplitude(s, conv, nil); err == nil {
		t.Error("saturating amplitude must error")
	}
}

func TestWeightedValue(t *testing.T) {
	got, err := WeightedValue([]int{0, 1, 1, 0, 2}) // 2 + 4 + 32
	if err != nil || got != 38 {
		t.Errorf("WeightedValue = %d, %v; want 38", got, err)
	}
	if _, err := WeightedValue([]int{-1}); err == nil {
		t.Error("negative digit should error")
	}
	long := make([]int, 70)
	long[69] = 1
	if _, err := WeightedValue(long); err == nil {
		t.Error("overflow should error")
	}
}
