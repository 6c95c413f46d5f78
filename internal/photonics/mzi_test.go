package photonics

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

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

func TestMZITransferUnitary(t *testing.T) {
	// |h x|^2 == |x|^2 for every phase setting: the ideal device
	// conserves energy.
	f := func(phiURaw, phiLRaw uint16, re0, im0, re1, im1 int8) bool {
		m := NewMZI()
		m.Params.InsertionLossDB = 0
		m.PhiUpper = float64(phiURaw) / 65535 * 2 * math.Pi
		m.PhiLower = float64(phiLRaw) / 65535 * 2 * math.Pi
		i0 := complex(float64(re0)/127, float64(im0)/127)
		i1 := complex(float64(re1)/127, float64(im1)/127)
		o0, o1 := m.Propagate(i0, i1)
		inP := real(i0*cmplx.Conj(i0) + i1*cmplx.Conj(i1))
		outP := real(o0*cmplx.Conj(o0) + o1*cmplx.Conj(o1))
		return math.Abs(inP-outP) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMZIBarState(t *testing.T) {
	m := NewMZI()
	m.Params.InsertionLossDB = 0
	m.SetBar()
	o0, o1 := m.Propagate(1, 0)
	if !relEq(cmplx.Abs(o0), 1, 1e-9) || cmplx.Abs(o1) > 1e-9 {
		t.Errorf("bar state: |o0|=%v |o1|=%v, want 1,0", cmplx.Abs(o0), cmplx.Abs(o1))
	}
	o0, o1 = m.Propagate(0, 1)
	if cmplx.Abs(o0) > 1e-9 || !relEq(cmplx.Abs(o1), 1, 1e-9) {
		t.Errorf("bar state i1: |o0|=%v |o1|=%v, want 0,1", cmplx.Abs(o0), cmplx.Abs(o1))
	}
}

func TestMZICrossState(t *testing.T) {
	m := NewMZI()
	m.Params.InsertionLossDB = 0
	m.SetCross()
	o0, o1 := m.Propagate(1, 0)
	if cmplx.Abs(o0) > 1e-9 || !relEq(cmplx.Abs(o1), 1, 1e-9) {
		t.Errorf("cross state: |o0|=%v |o1|=%v, want 0,1", cmplx.Abs(o0), cmplx.Abs(o1))
	}
}

func TestMZICouplerCombines(t *testing.T) {
	// Balanced coupler: two equal in-phase inputs combine; with
	// theta = pi/4 all power can emerge from one port.
	m := NewMZI()
	m.Params.InsertionLossDB = 0
	if err := m.SetCoupler(math.Pi / 4); err != nil {
		t.Fatal(err)
	}
	o0, o1 := m.Propagate(complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0))
	p0 := real(o0 * cmplx.Conj(o0))
	p1 := real(o1 * cmplx.Conj(o1))
	if !relEq(p0, 1, 1e-9) || p1 > 1e-9 {
		t.Errorf("coupler: p0=%v p1=%v, want all power at o0", p0, p1)
	}
}

func TestMZISetCouplerRange(t *testing.T) {
	m := NewMZI()
	if err := m.SetCoupler(0); err == nil {
		t.Error("theta=0 should error")
	}
	if err := m.SetCoupler(math.Pi / 2); err == nil {
		t.Error("theta=pi/2 should error")
	}
}

func TestMZIInsertionLossApplied(t *testing.T) {
	m := NewMZI()
	m.Params.InsertionLossDB = 3.0102999566 // halves power
	m.SetCross()
	_, o1 := m.Propagate(1, 0)
	if !relEq(real(o1*cmplx.Conj(o1)), 0.5, 1e-6) {
		t.Errorf("lossy cross output power = %v, want 0.5", real(o1*cmplx.Conj(o1)))
	}
}

func TestMZIPhaseErrorBreaksSwitching(t *testing.T) {
	m := NewMZI()
	m.Params.InsertionLossDB = 0
	m.SetCross()
	m.PhaseError = 0.4 // radians of drift
	o0, _ := m.Propagate(1, 0)
	// A perfect cross sends nothing to o0; a drifted device leaks.
	if cmplx.Abs(o0) < 1e-3 {
		t.Error("phase error should leak power to the wrong port")
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
	m := NewMZI()
	if m.EnergyPerSlot() != p.ModulationEnergyPerBit {
		t.Error("EnergyPerSlot should return the configured per-bit energy")
	}
}
