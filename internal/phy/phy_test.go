package phy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestDBRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		lin := math.Abs(raw)
		if lin == 0 || math.IsInf(lin, 0) || math.IsNaN(lin) || lin > 1e100 || lin < 1e-100 {
			return true
		}
		return almostEq(FromDB(10*math.Log10(lin)), lin, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDBKnownValues(t *testing.T) {
	if got := FromDB(10); !almostEq(got, 10, 1e-12) {
		t.Errorf("FromDB(10) = %v, want 10", got)
	}
	if got := FromDB(-3.0102999566); !almostEq(got, 0.5, 1e-9) {
		t.Errorf("FromDB(-3.01) = %v, want 0.5", got)
	}
	if got := FromDB(3); !almostEq(got, 1.9952623149, 1e-9) {
		t.Errorf("FromDB(3) = %v", got)
	}
}

func TestDBmRoundTrip(t *testing.T) {
	for _, w := range []float64{1e-6, 1e-3, 0.25, 2} {
		if got := FromDBm(10 * math.Log10(w/Milliwatt)); !almostEq(got, w, 1e-12) {
			t.Errorf("FromDBm(dBm of %v W) = %v", w, got)
		}
	}
	if got := FromDBm(0); got != 1*Milliwatt {
		t.Errorf("FromDBm(0) = %v, want 1mW", got)
	}
}

func TestPropagationDelayPaperMRRExample(t *testing.T) {
	// Paper Eq. 7: d = 2*pi*7.5um ~= 47.1um -> t = 0.547 ps.
	d := 2 * math.Pi * 7.5 * Micrometer
	got := PropagationDelay(d)
	if !almostEq(got, 0.547*Picosecond, 0.01) {
		t.Errorf("MRR S-path delay = %v, want ~0.547ps", got)
	}
}

func TestPropagationDelayPaperMZIExample(t *testing.T) {
	// Paper Eq. 10: (8*2mm + 7*6.77mm) * n_Si/c = 0.736 ns.
	d := (8*2 + 7*6.77) * Millimeter
	got := PropagationDelay(d)
	if !almostEq(got, 0.736*Nanosecond, 0.01) {
		t.Errorf("OO 4-bit accumulation delay = %v, want ~0.736ns", got)
	}
}

func TestPropagationDelayIndexMatchesSilicon(t *testing.T) {
	d := 3.3 * Millimeter
	if !almostEq(PropagationDelay(d), d*NSilicon/C, 1e-12) {
		t.Error("PropagationDelay disagrees with length * n_Si / c")
	}
}

func TestWaveguidePropagationSpeedMatchesPaper(t *testing.T) {
	// Paper: silicon waveguides propagate at 10.45 ps/mm.
	perMM := PropagationDelay(1 * Millimeter)
	if !almostEq(perMM, 10.45*Picosecond, 0.12) {
		t.Errorf("delay per mm = %v, want ~10.45ps (paper uses a slightly higher group index)", perMM)
	}
}

func TestFormatHelpers(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{FormatTime(1.5 * Nanosecond), "1.5 ns"},
		{FormatTime(0), "0 s"},
		{FormatEnergy(250 * Femtojoule), "250 fJ"},
		{FormatEnergy(1.024 * Nanojoule), "1.024 nJ"},
		{FormatPower(20 * Milliwatt), "20 mW"},
		{FormatArea(176 * SquareMicrometer), "176 um^2"},
		{FormatArea(2.5 * SquareMillimeter), "2.5 mm^2"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("format: got %q want %q", c.got, c.want)
		}
	}
}

func TestFormatNegativeAndTiny(t *testing.T) {
	if got := FormatEnergy(-3 * Picojoule); got != "-3 pJ" {
		t.Errorf("negative energy format = %q", got)
	}
	if !strings.HasSuffix(FormatEnergy(0.5*Attojoule), "aJ") {
		t.Errorf("sub-attojoule should use aJ, got %q", FormatEnergy(0.5*Attojoule))
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 4, 0}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {8, 4, 2}, {9, 4, 3},
		{17, 10, 2}, {-3, 4, 0},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivPanicsOnZeroDivisor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CeilDiv(1,0) did not panic")
		}
	}()
	CeilDiv(1, 0)
}

func TestLog2Ceil(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := Log2Ceil(c.n); got != c.want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestLog2CeilProperty(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw)%4096 + 1
		k := Log2Ceil(n)
		return (1<<k) >= n && (k == 0 || (1<<(k-1)) < n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLog2CeilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Log2Ceil(0) did not panic")
		}
	}()
	Log2Ceil(0)
}
