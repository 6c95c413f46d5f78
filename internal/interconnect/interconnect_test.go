package interconnect

import (
	"math"
	"strings"
	"testing"

	"pixel/internal/photonics"
	"pixel/internal/phy"
)

func TestNewGridValidates(t *testing.T) {
	g, err := NewGrid(4, 4, 4, 10*phy.Gigahertz)
	if err != nil {
		t.Fatal(err)
	}
	if g.Tiles() != 16 {
		t.Errorf("Tiles = %d", g.Tiles())
	}
	if g.RowWavelengths() != 16 {
		t.Error("wavelength count wrong")
	}
}

func TestGridWavelengthCeiling(t *testing.T) {
	// 16 tiles x 16 lanes = 256 wavelengths > 128: must be rejected.
	if _, err := NewGrid(4, 16, 16, 10*phy.Gigahertz); err == nil {
		t.Error("over-budget row should be rejected")
	} else if !strings.Contains(err.Error(), "128") {
		t.Errorf("error should cite the ceiling: %v", err)
	}
	// 8 tiles x 16 lanes = 128: exactly at the ceiling, allowed.
	if _, err := NewGrid(8, 8, 16, 10*phy.Gigahertz); err != nil {
		t.Errorf("at-ceiling grid should be accepted: %v", err)
	}
	// Column direction is also checked.
	if _, err := NewGrid(16, 4, 16, 10*phy.Gigahertz); err == nil {
		t.Error("over-budget column should be rejected")
	}
}

func TestGridValidateRejectsBadParams(t *testing.T) {
	cases := []struct{ r, c, l int }{
		{0, 4, 4}, {4, 0, 4}, {4, 4, 0},
	}
	for _, c := range cases {
		if _, err := NewGrid(c.r, c.c, c.l, 10*phy.Gigahertz); err == nil {
			t.Errorf("grid %+v should be rejected", c)
		}
	}
	if _, err := NewGrid(4, 4, 4, 0); err == nil {
		t.Error("zero bit rate should be rejected")
	}
}

func TestBandAllocationDisjoint(t *testing.T) {
	g, _ := NewGrid(4, 4, 4, 10*phy.Gigahertz)
	seen := map[int]bool{}
	for i := 0; i < g.Cols; i++ {
		lo, hi := g.Band(i)
		if hi-lo != g.Lanes {
			t.Errorf("band %d size %d, want %d", i, hi-lo, g.Lanes)
		}
		for w := lo; w < hi; w++ {
			if seen[w] {
				t.Fatalf("wavelength %d assigned twice", w)
			}
			seen[w] = true
		}
	}
	if len(seen) != g.RowWavelengths() {
		t.Errorf("allocated %d wavelengths, want %d", len(seen), g.RowWavelengths())
	}
}

func TestSerializationLatency(t *testing.T) {
	g, _ := NewGrid(4, 4, 4, 10*phy.Gigahertz)
	// 16 bits over 4 lanes at 10 GHz = 4 slots = 400 ps.
	if got := g.SerializationLatency(16); math.Abs(got-400*phy.Picosecond) > 1e-15 {
		t.Errorf("SerializationLatency(16) = %v, want 400ps", got)
	}
	// 17 bits needs a fifth slot.
	if got := g.SerializationLatency(17); math.Abs(got-500*phy.Picosecond) > 1e-15 {
		t.Errorf("SerializationLatency(17) = %v, want 500ps", got)
	}
	if g.SerializationLatency(0) != 0 {
		t.Error("zero bits should take zero time")
	}
}

func TestBroadcastLatencyIncludesFlight(t *testing.T) {
	g, _ := NewGrid(4, 4, 4, 10*phy.Gigahertz)
	if g.BroadcastLatency(16) <= g.SerializationLatency(16) {
		t.Error("broadcast must include flight time")
	}
	// 3 tiles x 500um pitch = 1.5mm -> ~15.7ps flight.
	if got := g.FlightTime(); math.Abs(got-15.675*phy.Picosecond) > 0.1*phy.Picosecond {
		t.Errorf("FlightTime = %v, want ~15.7ps", got)
	}
}

func TestRowLinkBudgetScalesWithListeners(t *testing.T) {
	small, _ := NewGrid(2, 2, 4, 10*phy.Gigahertz)
	big, _ := NewGrid(2, 8, 4, 10*phy.Gigahertz)
	ps, pb := small.RequiredLaunchPower(), big.RequiredLaunchPower()
	if pb <= ps {
		t.Errorf("more listeners should need more launch power: %v vs %v", pb, ps)
	}
	// The derived power closes the budget.
	b := big.RowLinkBudget(pb)
	if !b.Closes() {
		t.Error("derived launch power must close the worst-case budget")
	}
}

func TestBroadcastEnergyComponentsPositive(t *testing.T) {
	g, _ := NewGrid(4, 4, 4, 10*phy.Gigahertz)
	laser := photonics.DefaultLaser(g.Lanes, g.RequiredLaunchPower())
	e := g.BroadcastEnergy(64, laser)
	if e <= 0 {
		t.Fatal("broadcast energy must be positive")
	}
	// Energy grows with payload.
	if g.BroadcastEnergy(128, laser) <= e {
		t.Error("bigger payload should cost more")
	}
	if g.BroadcastEnergy(0, laser) != 0 {
		t.Error("no payload should be free")
	}
}

func TestWaveguideArea(t *testing.T) {
	g, _ := NewGrid(4, 4, 4, 10*phy.Gigahertz)
	if g.WaveguideArea() <= 0 {
		t.Error("waveguide area must be positive")
	}
	// A 1x1 grid has no inter-tile waveguides.
	solo, _ := NewGrid(1, 1, 4, 10*phy.Gigahertz)
	if got := solo.WaveguideArea(); got != 0 {
		t.Errorf("1x1 grid area = %v, want 0", got)
	}
}
