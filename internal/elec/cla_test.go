package elec

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestCLAGateCountPaperExamples(t *testing.T) {
	// Paper Section IV-A1: GC(8) = 212; Section IV-C: 4-bit CLA has 58
	// gates.
	if got := CLAGateCount(8); got != 212 {
		t.Errorf("GC(8) = %d, want 212", got)
	}
	if got := CLAGateCount(4); got != 58 {
		t.Errorf("GC(4) = %d, want 58", got)
	}
}

func TestCLALogicDepthPaperExample(t *testing.T) {
	// Paper: LD(8) = 4 + 2*ceil(log2(7)) = 10.
	if got := CLALogicDepth(8); got != 10 {
		t.Errorf("LD(8) = %d, want 10", got)
	}
	if got := CLALogicDepth(4); got != 8 {
		t.Errorf("LD(4) = %d, want 8", got)
	}
	if got := CLALogicDepth(2); got != 4 {
		t.Errorf("LD(2) = %d, want 4", got)
	}
	if got := CLALogicDepth(16); got != 12 {
		t.Errorf("LD(16) = %d, want 12", got)
	}
	if got := CLALogicDepth(32); got != 14 {
		t.Errorf("LD(32) = %d, want 14", got)
	}
}

func TestCLAGateCountMonotone(t *testing.T) {
	prev := 0
	for n := 1; n <= 64; n++ {
		gc := CLAGateCount(n)
		if gc <= prev {
			t.Fatalf("GC not strictly increasing at n=%d: %d <= %d", n, gc, prev)
		}
		prev = gc
	}
}

func TestCLAGateCountDivisibility(t *testing.T) {
	// n^3 + 6n^2 + 47n is always divisible by 6, so the formula is exact
	// for every n (no truncation).
	for n := 1; n <= 128; n++ {
		num := n*n*n + 6*n*n + 47*n
		if num%6 != 0 {
			t.Fatalf("GC numerator not divisible by 6 at n=%d", n)
		}
	}
}

func TestCLAPanicsOnBadWidth(t *testing.T) {
	for _, f := range []func(){
		func() { CLAGateCount(0) },
		func() { CLALogicDepth(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on width 0")
				}
			}()
			f()
		}()
	}
}

func TestNewCLAAdderRange(t *testing.T) {
	if _, err := NewCLAAdder(0); err == nil {
		t.Error("width 0 should error")
	}
	if _, err := NewCLAAdder(65); err == nil {
		t.Error("width 65 should error")
	}
	for _, w := range []int{1, 8, 32, 64} {
		if _, err := NewCLAAdder(w); err != nil {
			t.Errorf("width %d: unexpected error %v", w, err)
		}
	}
}

func TestCLAAdderKnownSums(t *testing.T) {
	a, _ := NewCLAAdder(4)
	cases := []struct {
		x, y     uint64
		cin      bool
		sum      uint64
		carryOut bool
	}{
		{0, 0, false, 0, false},
		{0b0110, 0b0011, false, 0b1001, false},
		{0b1111, 0b0001, false, 0b0000, true},
		{0b1111, 0b1111, true, 0b1111, true},
		{0b1000, 0b1000, false, 0b0000, true},
		{0b0101, 0b0101, false, 0b1010, false},
	}
	for _, c := range cases {
		sum, cout := a.Add(c.x, c.y, c.cin)
		if sum != c.sum || cout != c.carryOut {
			t.Errorf("Add(%04b,%04b,%v) = (%04b,%v), want (%04b,%v)",
				c.x, c.y, c.cin, sum, cout, c.sum, c.carryOut)
		}
	}
}

func TestCLAAdderMatchesNativeAdd(t *testing.T) {
	for _, w := range []int{1, 3, 8, 16, 24, 32, 48, 63, 64} {
		a, err := NewCLAAdder(w)
		if err != nil {
			t.Fatal(err)
		}
		mask := a.mask
		f := func(x, y uint64, cin bool) bool {
			sum, cout := a.Add(x, y, cin)
			var ci uint64
			if cin {
				ci = 1
			}
			if w == 64 {
				want, wantCout := bits.Add64(x, y, ci)
				return sum == want && cout == (wantCout == 1)
			}
			full := (x & mask) + (y & mask) + ci
			return sum == full&mask && cout == ((full>>uint(w))&1 == 1)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("width %d: %v", w, err)
		}
	}
}
