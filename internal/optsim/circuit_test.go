package optsim

import (
	"strings"
	"testing"

	"pixel/internal/photonics"
	"pixel/internal/phy"
)

func TestCircuitLinearChain(t *testing.T) {
	c := NewCircuit()
	src := c.Add(&SourceNode{Label: "in", Signal: NewOOK([]int{1, 0, 1}, launch, slot, 0)})
	tap := c.Add(&TapNode{Label: "probe"})
	dly := c.Add(&DelayNode{Label: "d1", Slots: 2})
	if err := c.Connect(src, 0, tap, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(tap, 0, dly, 0); err != nil {
		t.Fatal(err)
	}
	out, err := c.Run(NewLedger())
	if err != nil {
		t.Fatal(err)
	}
	got := out[dly][0]
	if got.Slots() != 5 || got.Power(2) == 0 || got.Power(0) != 0 {
		t.Errorf("delayed output wrong: %v", got.Powers())
	}
}

func TestCircuitRejectsCycle(t *testing.T) {
	c := NewCircuit()
	a := c.Add(&TapNode{Label: "a"})
	b := c.Add(&TapNode{Label: "b"})
	if err := c.Connect(a, 0, b, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(b, 0, a, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(nil); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("expected cycle error, got %v", err)
	}
}

func TestCircuitRejectsUnconnectedInput(t *testing.T) {
	c := NewCircuit()
	c.Add(&TapNode{Label: "floating"})
	if _, err := c.Run(nil); err == nil || !strings.Contains(err.Error(), "unconnected") {
		t.Errorf("expected unconnected error, got %v", err)
	}
}

func TestCircuitRejectsDoubleDrive(t *testing.T) {
	c := NewCircuit()
	s1 := c.Add(&SourceNode{Label: "s1", Signal: NewDark(1, slot, 0)})
	s2 := c.Add(&SourceNode{Label: "s2", Signal: NewDark(1, slot, 0)})
	tp := c.Add(&TapNode{Label: "t"})
	if err := c.Connect(s1, 0, tp, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(s2, 0, tp, 0); err == nil {
		t.Error("double-driven input must be rejected")
	}
}

func TestCircuitPortValidation(t *testing.T) {
	c := NewCircuit()
	tp := c.Add(&TapNode{Label: "t"})
	if err := c.Connect(tp, 1, tp, 0); err == nil {
		t.Error("bad output port must be rejected")
	}
	if err := c.Connect(tp, 0, tp, 3); err == nil {
		t.Error("bad input port must be rejected")
	}
	if err := c.Connect(9, 0, tp, 0); err == nil {
		t.Error("bad node id must be rejected")
	}
}

func TestCircuitFilterSplitsBarCross(t *testing.T) {
	c := NewCircuit()
	src := c.Add(&SourceNode{Label: "in", Signal: NewOOK([]int{1}, launch, slot, 3)})
	f := photonics.NewDoubleMRRFilter(3)
	f.On = true
	flt := c.Add(&FilterNode{Label: "and", Filter: f})
	if err := c.Connect(src, 0, flt, 0); err != nil {
		t.Fatal(err)
	}
	led := NewLedger()
	out, err := c.Run(led)
	if err != nil {
		t.Fatal(err)
	}
	bar, cross := out[flt][0], out[flt][1]
	if cross.Power(0) < 0.8*launch {
		t.Errorf("cross power = %v", cross.Power(0))
	}
	if bar.Power(0) > 0.02*launch {
		t.Errorf("bar leakage = %v", bar.Power(0))
	}
	if led.Energy(CatMul) <= 0 {
		t.Error("filter node must charge mul energy")
	}
}

// TestCircuitOOChainMatchesDirectComposition rebuilds the OO
// accumulation chain as an explicit netlist — MZI combiners with
// one-slot delay feedback paths unrolled — and checks it produces the
// same product train as MZIAccumulate.
func TestCircuitOOChainMatchesDirectComposition(t *testing.T) {
	const bits = 4
	neuron, synapse := uint64(6), uint64(13)
	inputs := mziInputs(neuron, synapse, bits)

	want, err := MZIAccumulate(inputs, defaultMZIOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}

	c := NewCircuit()
	params := photonics.DefaultMZIParams()
	var accNode, accPort int
	for k, in := range inputs {
		src := c.Add(&SourceNode{Label: "lane", Signal: in})
		if k == 0 {
			accNode, accPort = src, 0
			continue
		}
		dly := c.Add(&DelayNode{Label: "slot", Slots: 1})
		if err := c.Connect(accNode, accPort, dly, 0); err != nil {
			t.Fatal(err)
		}
		mzi := c.Add(&CombinerNode{Label: "acc", Params: params})
		if err := c.Connect(dly, 0, mzi, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.Connect(src, 0, mzi, 1); err != nil {
			t.Fatal(err)
		}
		accNode, accPort = mzi, 0
	}
	out, err := c.Run(NewLedger())
	if err != nil {
		t.Fatal(err)
	}
	got := out[accNode][accPort]
	if got.Slots() != want.Slots() {
		t.Fatalf("netlist output %d slots, direct %d", got.Slots(), want.Slots())
	}
	for i := 0; i < want.Slots(); i++ {
		d := got.Power(i) - want.Power(i)
		if d > 1e-15 || d < -1e-15 {
			t.Errorf("slot %d: netlist %v, direct %v", i, got.Power(i), want.Power(i))
		}
	}
	// And the detected product is the integer product.
	conv, err := photonics.NewAmplitudeConverter(launch, bits)
	if err != nil {
		t.Fatal(err)
	}
	conv.Coherent = true
	digits, err := DetectAmplitude(got, conv, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := WeightedValue(digits)
	if err != nil || v != 78 {
		t.Errorf("netlist product = %d, %v; want 78", v, err)
	}
}

// TestCombinerNodeSkewPropagates runs a combiner whose inputs are
// misaligned by less and by more than its quarter-slot (25 ps)
// tolerance: the first combines, the second errors through the circuit.
func TestCombinerNodeSkewPropagates(t *testing.T) {
	for _, c := range []struct {
		skew    float64
		wantErr bool
	}{{20 * phy.Picosecond, false}, {40 * phy.Picosecond, true}} {
		circ := NewCircuit()
		a := circ.Add(&SourceNode{Label: "a", Signal: NewOOK([]int{1}, launch, slot, 0)})
		skewed := NewOOK([]int{1}, launch, slot, 0).AddSkew(c.skew)
		b := circ.Add(&SourceNode{Label: "b", Signal: skewed})
		m := circ.Add(&CombinerNode{Label: "m", Params: photonics.DefaultMZIParams()})
		if err := circ.Connect(a, 0, m, 0); err != nil {
			t.Fatal(err)
		}
		if err := circ.Connect(b, 0, m, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := circ.Run(NewLedger()); (err != nil) != c.wantErr {
			t.Errorf("skew %g s: err = %v, want error %v", c.skew, err, c.wantErr)
		}
	}
}
