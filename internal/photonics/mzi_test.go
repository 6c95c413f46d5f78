package photonics

import (
	"testing"

	"pixel/internal/phy"
)

func TestMZIInterStagePathMatchesPaper(t *testing.T) {
	p := DefaultMZIParams()
	// Paper Eq. 9: d = c/(n_Si * 10GHz) - 2mm, printed as 6.77 mm. The
	// expression with n_Si = 3.48 actually gives 6.61 mm; we accept a
	// 3% band around the printed value (the paper's constant choice is
	// slightly inconsistent with its own Eq. 9).
	d, err := p.InterStagePath(10 * phy.Gigahertz)
	if err != nil {
		t.Fatal(err)
	}
	if !relEq(d, 6.77*phy.Millimeter, 0.03) {
		t.Errorf("inter-stage path = %v, want ~6.77mm", d)
	}
}

func TestMZIAccumulationDelayMatchesPaper(t *testing.T) {
	p := DefaultMZIParams()
	// Paper Eq. 10: (8*2mm + 7*6.77mm)*n_Si/c = 0.736 ns — the worked
	// example evaluates 8 stages. 3% band (see InterStagePath test).
	got, err := p.AccumulationDelay(8, 10*phy.Gigahertz)
	if err != nil {
		t.Fatal(err)
	}
	if !relEq(got, 0.736*phy.Nanosecond, 0.03) {
		t.Errorf("8-stage accumulation delay = %v, want ~0.736ns", got)
	}
}

func TestMZIInterStagePathErrors(t *testing.T) {
	p := DefaultMZIParams()
	if _, err := p.InterStagePath(0); err == nil {
		t.Error("zero bit rate should error")
	}
	// At a high enough rate the arm itself exceeds a bit period of
	// flight: 2mm of silicon is ~23ps, so beyond ~43 GHz sync fails.
	if _, err := p.InterStagePath(60 * phy.Gigahertz); err == nil {
		t.Error("expected synchronization failure at 60 GHz with 2mm arms")
	}
	if _, err := p.AccumulationDelay(0, 10*phy.Gigahertz); err == nil {
		t.Error("zero stages should error")
	}
}

func TestMZIParamsCostModel(t *testing.T) {
	p := DefaultMZIParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Area() <= 0 {
		t.Error("area must be positive")
	}
	bad := p
	bad.ArmLength = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero arm length should fail validation")
	}
}
