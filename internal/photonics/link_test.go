package photonics

import (
	"math"
	"strings"
	"testing"

	"pixel/internal/phy"
)

func TestWaveguideModel(t *testing.T) {
	w := DefaultWaveguide(1 * phy.Millimeter)
	if !relEq(w.Delay(), 10.45*phy.Picosecond, 1e-9) {
		t.Errorf("1mm delay = %v, want 10.45ps", w.Delay())
	}
	if !relEq(w.LossDB(), 0.13, 1e-9) {
		t.Errorf("1mm loss = %v dB, want 0.13", w.LossDB())
	}
	if w.FieldTransmission() >= 1 || w.FieldTransmission() <= 0 {
		t.Errorf("field transmission = %v out of (0,1)", w.FieldTransmission())
	}
	if !relEq(w.Area(), 1*phy.Millimeter*5.5*phy.Micrometer, 1e-12) {
		t.Errorf("area = %v", w.Area())
	}
}

func TestLaserModel(t *testing.T) {
	l := DefaultLaser(16, 1*phy.Milliwatt)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// 10% wall-plug: 16 mW optical needs 160 mW electrical.
	electrical := float64(l.Wavelengths) * l.PowerPerWavelength / l.WallPlugEfficiency
	if !relEq(electrical, 160*phy.Milliwatt, 1e-12) {
		t.Errorf("electrical power = %v", electrical)
	}
}

func TestLaserValidate(t *testing.T) {
	cases := []Laser{
		DefaultLaser(0, phy.Milliwatt),   // no channels
		DefaultLaser(200, phy.Milliwatt), // beyond 128 channels
		DefaultLaser(8, 0),               // no power
		{Wavelengths: 8, PowerPerWavelength: phy.Milliwatt, WallPlugEfficiency: 1.5,
			Footprint: phy.SquareMicrometer}, // impossible efficiency
	}
	for i, l := range cases {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestPhotodetector(t *testing.T) {
	pd := DefaultPhotodetector()
	if err := pd.Validate(); err != nil {
		t.Fatal(err)
	}
	// -20 dBm sensitivity = 10 uW.
	if !relEq(pd.Sensitivity, 10*phy.Microwatt, 1e-9) {
		t.Errorf("sensitivity = %v, want 10uW", pd.Sensitivity)
	}
	if !relEq(pd.Current(1*phy.Milliwatt), 1.1e-3, 1e-9) {
		t.Errorf("current at 1mW = %v, want 1.1mA", pd.Current(1*phy.Milliwatt))
	}
	if pd.Current(-1) != 0 {
		t.Error("negative power must give zero current")
	}
}

func TestLinkBudgetCloses(t *testing.T) {
	b := LinkBudget{
		LaserPowerPerWavelength: 1 * phy.Milliwatt,
		LossesDB: map[string]float64{
			"coupler":   1.0,
			"waveguide": 1.3,
			"rings":     0.5,
		},
		Detector: DefaultPhotodetector(),
		MarginDB: 3,
	}
	if !relEq(b.TotalLossDB(), 2.8, 1e-12) {
		t.Errorf("total loss = %v", b.TotalLossDB())
	}
	if !b.Closes() {
		t.Errorf("budget should close: received %v", b.ReceivedPower())
	}
	if err := b.Check(); err != nil {
		t.Error(err)
	}
	// Required launch power must be <= the configured launch power when
	// the budget closes.
	if b.RequiredLaserPower() > b.LaserPowerPerWavelength {
		t.Error("required power should not exceed available power for a closing budget")
	}
}

// TestLinkBudgetTotalIsOrderFree pins the loss sum to one summation
// order: float addition does not associate, so a sum that followed map
// iteration order would vary in its last bits from call to call.
func TestLinkBudgetTotalIsOrderFree(t *testing.T) {
	b := LinkBudget{LossesDB: map[string]float64{
		"modulator": 0.1, "waveguide": 0.2, "ring-passbys": 0.3,
		"mrr-drop": 1.7, "mzi-chain": 2.9, "coupler": 1e-3,
	}}
	want := math.Float64bits(b.TotalLossDB())
	for i := 0; i < 100; i++ {
		if got := math.Float64bits(b.TotalLossDB()); got != want {
			t.Fatalf("call %d: total loss bits %#x, first call %#x", i, got, want)
		}
	}
}

func TestLinkBudgetFails(t *testing.T) {
	b := LinkBudget{
		LaserPowerPerWavelength: 100 * phy.Microwatt,
		LossesDB:                map[string]float64{"path": 25},
		Detector:                DefaultPhotodetector(),
		MarginDB:                3,
	}
	if b.Closes() {
		t.Error("budget should not close")
	}
	err := b.Check()
	if err == nil {
		t.Fatal("Check should error")
	}
	if !strings.Contains(err.Error(), "does not close") {
		t.Errorf("unhelpful error: %v", err)
	}
	// And the required power is what would fix it (with an epsilon for
	// the dB round trip).
	b.LaserPowerPerWavelength = b.RequiredLaserPower() * (1 + 1e-9)
	if !b.Closes() {
		t.Error("budget should close at the required power")
	}
}

func TestOEConverterSlicing(t *testing.T) {
	one := 1 * phy.Milliwatt
	c, err := NewOEConverter(one)
	if err != nil {
		t.Fatal(err)
	}
	powers := []float64{0, one, 0.9 * one, 0.1 * one, one}
	got := c.Slice(powers)
	want := []int{0, 1, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("slot %d: got %d want %d", i, got[i], want[i])
		}
	}
	if c.Energy(8) <= 0 {
		t.Error("conversion energy must be positive")
	}
}

func TestOEConverterRejectsWeakSignal(t *testing.T) {
	if _, err := NewOEConverter(1 * phy.Microwatt); err == nil {
		t.Error("one-level below sensitivity should error")
	}
}

func TestAmplitudeConverterResolve(t *testing.T) {
	unit := 100 * phy.Microwatt
	a, err := NewAmplitudeConverter(unit, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		power float64
		want  int
	}{
		{0, 0},
		{0.4 * unit, 0},
		{0.6 * unit, 1},
		{1 * unit, 1},
		{2.2 * unit, 2},
		{3.9 * unit, 4},
		{4 * unit, 4},
		{9 * unit, 4}, // saturates
	}
	for _, c := range cases {
		if got := a.Resolve(c.power); got != c.want {
			t.Errorf("Resolve(%v) = %d, want %d", c.power, got, c.want)
		}
	}
}

func TestAmplitudeConverterCheckedSaturation(t *testing.T) {
	unit := 100 * phy.Microwatt
	a, _ := NewAmplitudeConverter(unit, 3)
	if _, err := a.ResolveChecked(3 * unit); err != nil {
		t.Errorf("level 3 should be fine: %v", err)
	}
	if _, err := a.ResolveChecked(5 * unit); err == nil {
		t.Error("level 5 on a 3-level ladder should error")
	}
}

func TestAmplitudeConverterResolutionLimit(t *testing.T) {
	// Unit spacing below 2x detector sensitivity is not resolvable.
	if _, err := NewAmplitudeConverter(5*phy.Microwatt, 4); err == nil {
		t.Error("sub-resolution ladder should be rejected")
	}
	if _, err := NewAmplitudeConverter(100*phy.Microwatt, 0); err == nil {
		t.Error("maxLevel 0 should be rejected")
	}
}

func TestAmplitudeConverterTrainAndEnergy(t *testing.T) {
	unit := 200 * phy.Microwatt
	a, _ := NewAmplitudeConverter(unit, 7)
	want := []int{0, 1, 3, 7}
	for i, p := range []float64{0, unit, 3 * unit, 7 * unit} {
		if got := a.Resolve(p); got != want[i] {
			t.Errorf("train slot %d = %d, want %d", i, got, want[i])
		}
	}
	// The ladder costs more than the simple OOK converter per slot.
	simple, _ := NewOEConverter(unit)
	if a.Energy(10) <= simple.Energy(10) {
		t.Error("amplitude converter should cost more than simple OOK converter")
	}
}
