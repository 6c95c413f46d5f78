package elec

import (
	"testing"
	"testing/quick"
)

func TestANDArray(t *testing.T) {
	gc := ANDArray(8)
	if gc.Gates != 8 || gc.Depth != 1 || gc.Flops != 0 {
		t.Errorf("ANDArray(8) = %+v", gc)
	}
}

func TestRegister(t *testing.T) {
	if gc := Register(16); gc.Flops != 16 || gc.Gates != 0 {
		t.Errorf("Register(16) = %+v", gc)
	}
}

func TestBarrelShifterGateCountGrowth(t *testing.T) {
	// n log n growth: 8-bit has 3 stages, 16-bit has 4.
	g8 := BarrelShifter(8)
	g16 := BarrelShifter(16)
	if g8.Gates != 3*8*3 {
		t.Errorf("BarrelShifter(8).Gates = %d, want 72", g8.Gates)
	}
	if g16.Gates != 3*16*4 {
		t.Errorf("BarrelShifter(16).Gates = %d, want 192", g16.Gates)
	}
	if g16.Depth <= g8.Depth {
		t.Error("deeper shifter should have more depth")
	}
}

func TestComparatorLadder(t *testing.T) {
	gc := ComparatorLadder(4) // 3 comparators
	if gc.Gates != 12*3+2*3 {
		t.Errorf("ComparatorLadder(4).Gates = %d, want 42", gc.Gates)
	}
	defer func() {
		if recover() == nil {
			t.Error("ComparatorLadder(1) should panic")
		}
	}()
	ComparatorLadder(1)
}

func TestAccumulatorWidth(t *testing.T) {
	cases := []struct{ bits, terms, want int }{
		{4, 1, 9},   // 8 + ceil(log2(1)) clamped to 1
		{4, 4, 10},  // 8 + 2
		{8, 16, 20}, // 16 + 4
		{8, 9, 20},  // 16 + 4
	}
	for _, c := range cases {
		if got := AccumulatorWidth(c.bits, c.terms); got != c.want {
			t.Errorf("AccumulatorWidth(%d,%d) = %d, want %d", c.bits, c.terms, got, c.want)
		}
	}
}

func TestGateCountComposition(t *testing.T) {
	a := GateCount{Gates: 10, Flops: 2, Depth: 3}
	b := GateCount{Gates: 5, Flops: 1, Depth: 7}
	sum := a.Add(b)
	if sum.Gates != 15 || sum.Flops != 3 || sum.Depth != 7 {
		t.Errorf("Add = %+v", sum)
	}
	chain := a.Chain(b)
	if chain.Depth != 10 || chain.Gates != 15 {
		t.Errorf("Chain = %+v", chain)
	}
	scaled := a.Scale(4)
	if scaled.Gates != 40 || scaled.Flops != 8 || scaled.Depth != 3 {
		t.Errorf("Scale = %+v", scaled)
	}
}

func TestGateCountCostsUnderTech(t *testing.T) {
	tech := Bulk22LVT()
	if err := tech.Validate(); err != nil {
		t.Fatal(err)
	}
	// Paper worked example: 8-bit CLA, LD=10 -> 2.95 ns at 0.295 ns/level.
	gc := CLA(8)
	if d := gc.Delay(tech); !within(d, 2.95e-9, 1e-3) {
		t.Errorf("8-bit CLA delay = %v, want 2.95ns", d)
	}
	if e := gc.Energy(tech); e <= 0 {
		t.Error("energy must be positive")
	}
	if a := gc.Area(tech); a <= 0 {
		t.Error("area must be positive")
	}
	if l := gc.Leakage(tech); l <= 0 {
		t.Error("leakage must be positive")
	}
}

func within(got, want, rel float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= rel*want
}

func TestTechValidateCatchesBadParams(t *testing.T) {
	good := Bulk22LVT()
	bad := []func(*Tech){
		func(t *Tech) { t.GateEnergy = 0 },
		func(t *Tech) { t.GateArea = -1 },
		func(t *Tech) { t.GateDelay = 0 },
		func(t *Tech) { t.ClockRate = 0 },
		func(t *Tech) { t.FlopEnergy = 0 },
		func(t *Tech) { t.WireEnergyPerBitMeter = -1 },
	}
	for i, mutate := range bad {
		tech := good
		mutate(&tech)
		if err := tech.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestClockPeriod(t *testing.T) {
	tech := Bulk22LVT()
	if got := tech.ClockPeriod(); !within(got, 1e-9, 1e-12) {
		t.Errorf("ClockPeriod = %v, want 1ns", got)
	}
}

func TestBarrelShifterFuncMatchesNativeShift(t *testing.T) {
	for _, w := range []int{4, 8, 16, 32, 64} {
		bs, err := NewBarrelShifter(w)
		if err != nil {
			t.Fatal(err)
		}
		mask := bs.mask
		f := func(v uint64, nRaw uint8) bool {
			n := int(nRaw) % (w + 4) // sometimes exceed width
			got := bs.ShiftLeft(v, n)
			var want uint64
			if n < w {
				want = (v << uint(n)) & mask
			}
			return got == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("width %d: %v", w, err)
		}
	}
}

func TestBarrelShifterRejectsBadWidth(t *testing.T) {
	if _, err := NewBarrelShifter(0); err == nil {
		t.Error("width 0 should error")
	}
	if _, err := NewBarrelShifter(100); err == nil {
		t.Error("width 100 should error")
	}
}

func TestBarrelShifterNegativePanics(t *testing.T) {
	bs, _ := NewBarrelShifter(8)
	defer func() {
		if recover() == nil {
			t.Error("negative shift should panic")
		}
	}()
	bs.ShiftLeft(1, -1)
}
