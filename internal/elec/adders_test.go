package elec

import "testing"

func TestKoggeStoneShallowerThanCLAAtWidth(t *testing.T) {
	// The prefix adder's depth is logarithmic; the classified CLA's
	// Eq. 6 depth grows 4 + 2*ceil(log2(n-1)). From 8 bits up the
	// prefix network is strictly shallower.
	for _, n := range []int{8, 16, 32, 64} {
		if KoggeStoneLogicDepth(n) >= CLALogicDepth(n) {
			t.Errorf("n=%d: KS depth %d should beat CLA depth %d",
				n, KoggeStoneLogicDepth(n), CLALogicDepth(n))
		}
	}
	// And it pays in gates at small widths but wins at large widths
	// vs the cubic CLA formula.
	if KoggeStoneGateCount(64) >= CLAGateCount(64) {
		t.Error("KS should use fewer gates than the cubic CLA formula at 64 bits")
	}
}

func TestKoggeStonePanics(t *testing.T) {
	for _, f := range []func(){
		func() { KoggeStoneGateCount(0) },
		func() { KoggeStoneLogicDepth(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMultiplierGateModels(t *testing.T) {
	arr := ArrayMultiplier(8)
	wal := WallaceMultiplier(8)
	if arr.Gates <= 0 || wal.Gates <= 0 {
		t.Fatal("multiplier gates must be positive")
	}
	// Wallace trades a (slightly) larger final adder for much less
	// depth than the linear array.
	if wal.Depth >= arr.Depth {
		t.Errorf("Wallace depth %d should beat array depth %d", wal.Depth, arr.Depth)
	}
	// Quadratic growth: doubling the width should much more than
	// double the gates.
	if ArrayMultiplier(16).Gates <= 3*arr.Gates {
		t.Errorf("16-bit multiplier (%d gates) should exceed 3x the 8-bit (%d)",
			ArrayMultiplier(16).Gates, arr.Gates)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ArrayMultiplier(0)
}

func TestWallacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	WallaceMultiplier(0)
}
