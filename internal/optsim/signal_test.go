package optsim

import (
	"math"
	"testing"
	"testing/quick"

	"pixel/internal/phy"
)

const slot = 100 * phy.Picosecond // 10 GHz

func TestNewOOKPowers(t *testing.T) {
	s := NewOOK([]int{1, 0, 1, 1}, 1*phy.Milliwatt, slot, 0)
	want := []float64{1e-3, 0, 1e-3, 1e-3}
	for i, w := range want {
		if math.Abs(s.Power(i)-w) > 1e-12 {
			t.Errorf("slot %d power = %v, want %v", i, s.Power(i), w)
		}
	}
	if s.Slots() != 4 {
		t.Errorf("Slots = %d", s.Slots())
	}
	// Out-of-range slots are dark.
	if s.Power(-1) != 0 || s.Power(99) != 0 {
		t.Error("out-of-range slots must be dark")
	}
}

func TestDelaySlots(t *testing.T) {
	s := NewOOK([]int{1, 1}, 1e-3, slot, 2)
	d := s.DelaySlots(3)
	if d.Slots() != 5 {
		t.Fatalf("delayed slots = %d, want 5", d.Slots())
	}
	for i := 0; i < 3; i++ {
		if d.Power(i) != 0 {
			t.Errorf("slot %d should be dark", i)
		}
	}
	if d.Power(3) == 0 || d.Power(4) == 0 {
		t.Error("pulses should land at slots 3,4")
	}
	if d.Channel != 2 {
		t.Error("channel must be preserved")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := NewOOK([]int{1}, 1e-3, slot, 0)
	c := s.Clone()
	c.Amps[0] = 0
	if s.Power(0) == 0 {
		t.Error("mutating the clone changed the original")
	}
}

func TestScaleAndPad(t *testing.T) {
	s := NewOOK([]int{1}, 4e-3, slot, 0)
	s.Scale(complex(0.5, 0))
	if math.Abs(s.Power(0)-1e-3) > 1e-15 {
		t.Errorf("scaled power = %v, want 1e-3 (field halves, power quarters)", s.Power(0))
	}
	p := s.PadTo(5)
	if p.Slots() != 5 || p.Power(4) != 0 {
		t.Error("PadTo should extend with dark slots")
	}
	if q := p.PadTo(2); q.Slots() != 5 {
		t.Error("PadTo smaller than current length should be a no-op copy")
	}
}

func TestCombineAddsAmplitudes(t *testing.T) {
	a := NewOOK([]int{1, 0}, 1e-3, slot, 0)
	b := NewOOK([]int{1, 1}, 1e-3, slot, 0)
	out, err := Combine(a, b, slot/4)
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0: both pulses coherent -> field doubles -> power quadruples.
	if math.Abs(out.Power(0)-4e-3) > 1e-12 {
		t.Errorf("slot0 combined power = %v, want 4e-3", out.Power(0))
	}
	// Slot 1: single pulse.
	if math.Abs(out.Power(1)-1e-3) > 1e-12 {
		t.Errorf("slot1 combined power = %v, want 1e-3", out.Power(1))
	}
}

func TestCombineLengthMismatch(t *testing.T) {
	a := NewOOK([]int{1}, 1e-3, slot, 0)
	b := NewOOK([]int{1, 1, 1}, 1e-3, slot, 0)
	out, err := Combine(a, b, slot/4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Slots() != 3 {
		t.Errorf("combined length = %d, want 3", out.Slots())
	}
}

func TestCombineRejectsMismatchedPeriodOrChannel(t *testing.T) {
	a := NewOOK([]int{1}, 1e-3, slot, 0)
	b := NewOOK([]int{1}, 1e-3, 2*slot, 0)
	if _, err := Combine(a, b, slot); err == nil {
		t.Error("different periods must not combine")
	}
	c := NewOOK([]int{1}, 1e-3, slot, 1)
	if _, err := Combine(a, c, slot); err == nil {
		t.Error("different channels must not combine")
	}
}

func TestCombineSkewTolerance(t *testing.T) {
	a := NewOOK([]int{1}, 1e-3, slot, 0)
	b := NewOOK([]int{1}, 1e-3, slot, 0).AddSkew(30 * phy.Picosecond)
	if _, err := Combine(a, b, 25*phy.Picosecond); err == nil {
		t.Error("expected skew error")
	} else if _, ok := err.(*SkewError); !ok {
		t.Errorf("expected *SkewError, got %T: %v", err, err)
	}
	if _, err := Combine(a, b, 35*phy.Picosecond); err != nil {
		t.Errorf("skew within tolerance should combine: %v", err)
	}
}

func TestCombineCommutative(t *testing.T) {
	f := func(bitsA, bitsB []bool) bool {
		ba := make([]int, len(bitsA))
		for i, v := range bitsA {
			if v {
				ba[i] = 1
			}
		}
		bb := make([]int, len(bitsB))
		for i, v := range bitsB {
			if v {
				bb[i] = 1
			}
		}
		a := NewOOK(ba, 1e-3, slot, 0)
		b := NewOOK(bb, 1e-3, slot, 0)
		ab, err1 := Combine(a, b, slot/4)
		ba2, err2 := Combine(b, a, slot/4)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := 0; i < ab.Slots(); i++ {
			if math.Abs(ab.Power(i)-ba2.Power(i)) > 1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNewDarkAndBusPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"negative slots": func() { NewDark(-1, slot, 0) },
		"zero period":    func() { NewDark(4, 0, 0) },
		"negative power": func() { NewOOK([]int{1}, -1, slot, 0) },
		"negative delay": func() { NewDark(1, slot, 0).DelaySlots(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
