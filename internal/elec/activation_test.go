package elec

import "testing"

func TestTanhUnitGates(t *testing.T) {
	gc := TanhUnitGates(16)
	if gc.Gates <= 0 || gc.Depth <= 0 {
		t.Errorf("TanhUnitGates(16) = %+v", gc)
	}
	// The hybrid design is far smaller than a full multiplier-based
	// implementation; sanity-bound it under a 16-bit CLA+shifter pair.
	big := CLA(16).Chain(BarrelShifter(16))
	if gc.Gates >= big.Gates {
		t.Errorf("tanh unit (%d gates) should be smaller than CLA+shifter (%d)", gc.Gates, big.Gates)
	}
	defer func() {
		if recover() == nil {
			t.Error("width 1 should panic")
		}
	}()
	TanhUnitGates(1)
}
