package omac

import (
	"testing"
	"testing/quick"

	"pixel/internal/bitserial"
	"pixel/internal/optsim"
	"pixel/internal/phy"
)

func TestDefaultConfigValidates(t *testing.T) {
	for _, lanes := range []int{1, 4, 8, 16} {
		for _, bits := range []int{1, 4, 8, 16} {
			if err := DefaultConfig(lanes, bits).Validate(); err != nil {
				t.Errorf("DefaultConfig(%d,%d): %v", lanes, bits, err)
			}
		}
	}
}

func TestConfigValidateRejectsBadValues(t *testing.T) {
	bad := []Config{
		DefaultConfig(0, 4),
		DefaultConfig(65, 4),
		DefaultConfig(4, 0),
		DefaultConfig(4, 25),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	c := DefaultConfig(4, 4)
	c.BitRate = 0
	if err := c.Validate(); err == nil {
		t.Error("zero bit rate should fail")
	}
	c = DefaultConfig(4, 4)
	c.MarginDB = -1
	if err := c.Validate(); err == nil {
		t.Error("negative margin should fail")
	}
}

func TestLinkBudgetsDeriveLaunchPower(t *testing.T) {
	cfg := DefaultConfig(4, 8)
	oe := cfg.OELinkBudget()
	oo := cfg.OOLinkBudget()
	if !oe.Closes() || !oo.Closes() {
		t.Fatal("derived budgets must close")
	}
	// The OO path pays the MZI chain loss and the amplitude-resolution
	// margin, so it needs strictly more laser power — the reason
	// Table II shows OO laser energy ~1.5x OE's.
	if oo.LaserPowerPerWavelength <= oe.LaserPowerPerWavelength {
		t.Errorf("OO launch power %v should exceed OE's %v",
			oo.LaserPowerPerWavelength, oe.LaserPowerPerWavelength)
	}
}

func TestOEMultiplyMatchesInteger(t *testing.T) {
	u, err := NewOEUnit(DefaultConfig(4, 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	led := optsim.NewLedger()
	got, err := u.Multiply(6, 13, led)
	if err != nil {
		t.Fatal(err)
	}
	if got != 78 {
		t.Errorf("OE 6*13 = %d, want 78", got)
	}
	for _, cat := range []string{optsim.CatMul, optsim.CatAdd, optsim.CatOE, optsim.CatComm, optsim.CatLaser} {
		if led.Energy(cat) <= 0 {
			t.Errorf("category %q not charged", cat)
		}
	}
	if led.Latency() <= 0 {
		t.Error("latency not charged")
	}
}

func TestOOMultiplyMatchesInteger(t *testing.T) {
	u, err := NewOOUnit(DefaultConfig(4, 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	led := optsim.NewLedger()
	got, err := u.Multiply(6, 13, led)
	if err != nil {
		t.Fatal(err)
	}
	if got != 78 {
		t.Errorf("OO 6*13 = %d, want 78", got)
	}
	for _, cat := range []string{optsim.CatMul, optsim.CatAdd, optsim.CatOE, optsim.CatComm, optsim.CatLaser} {
		if led.Energy(cat) <= 0 {
			t.Errorf("category %q not charged", cat)
		}
	}
}

func TestOEMultiplyPropertyVsStripes(t *testing.T) {
	const bits = 8
	u, err := NewOEUnit(DefaultConfig(4, bits), 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := bitserial.NewEngine(bits, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		got, err := u.Multiply(uint64(a), uint64(b), nil)
		if err != nil {
			return false
		}
		want, _, err := ref.Multiply(uint64(a), uint64(b))
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestOOMultiplyPropertyVsStripes(t *testing.T) {
	const bits = 8
	u, err := NewOOUnit(DefaultConfig(4, bits), 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := bitserial.NewEngine(bits, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		got, err := u.Multiply(uint64(a), uint64(b), nil)
		if err != nil {
			return false
		}
		want, _, err := ref.Multiply(uint64(a), uint64(b))
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestThreeDesignsAgreeOnWindow(t *testing.T) {
	// The paper's Section II-B window must come out identical on EE
	// (Stripes), OE and OO.
	inputs := [][]uint64{
		{2, 4, 6, 9},
		{0, 1, 3, 4},
		{3, 5, 1, 2},
		{8, 2, 8, 6},
	}
	filters := [][][]uint64{{
		{6, 9, 13, 11},
		{1, 2, 1, 2},
		{2, 3, 4, 5},
		{3, 1, 3, 1},
	}}
	terms := 16

	ee, err := bitserial.NewEngine(4, terms)
	if err != nil {
		t.Fatal(err)
	}
	eeOut := make([]uint64, len(filters))
	for k, filter := range filters {
		for i := range filter {
			v, _, err := ee.DotProduct(inputs[i], filter[i])
			if err != nil {
				t.Fatal(err)
			}
			eeOut[k] += v
		}
	}

	oe, err := NewOEUnit(DefaultConfig(4, 4), terms)
	if err != nil {
		t.Fatal(err)
	}
	oeOut, err := oe.Window(inputs, filters, optsim.NewLedger())
	if err != nil {
		t.Fatal(err)
	}

	oo, err := NewOOUnit(DefaultConfig(4, 4), terms)
	if err != nil {
		t.Fatal(err)
	}
	ooOut, err := oo.Window(inputs, filters, optsim.NewLedger())
	if err != nil {
		t.Fatal(err)
	}

	if eeOut[0] != 329 {
		t.Errorf("EE window = %d, want 329", eeOut[0])
	}
	if oeOut[0] != eeOut[0] {
		t.Errorf("OE window = %d, EE = %d", oeOut[0], eeOut[0])
	}
	if ooOut[0] != eeOut[0] {
		t.Errorf("OO window = %d, EE = %d", ooOut[0], eeOut[0])
	}
}

func TestDotProductDesignsAgreeProperty(t *testing.T) {
	const bits, lanes = 6, 4
	terms := lanes
	oe, err := NewOEUnit(DefaultConfig(lanes, bits), terms)
	if err != nil {
		t.Fatal(err)
	}
	oo, err := NewOOUnit(DefaultConfig(lanes, bits), terms)
	if err != nil {
		t.Fatal(err)
	}
	mask := uint64(1<<bits - 1)
	f := func(raw [lanes * 2]uint8) bool {
		ns := make([]uint64, lanes)
		ss := make([]uint64, lanes)
		for i := 0; i < lanes; i++ {
			ns[i] = uint64(raw[i]) & mask
			ss[i] = uint64(raw[lanes+i]) & mask
		}
		want := bitserial.ReferenceDot(ns, ss)
		a, err1 := oe.DotProduct(ns, ss, nil)
		b, err2 := oo.DotProduct(ns, ss, nil)
		return err1 == nil && err2 == nil && a == want && b == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOOSkewFaultPropagates(t *testing.T) {
	u, err := NewOOUnit(DefaultConfig(4, 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	u.InjectStageSkew(40 * phy.Picosecond) // tolerance is period/4 = 25ps
	if _, err := u.Multiply(200, 100, nil); err == nil {
		t.Error("mis-cut inter-stage paths must surface as an error")
	}
}

func TestOEDetunedRingsCorruptProducts(t *testing.T) {
	// An uncompensated thermal drift (see package thermal) detunes the
	// AND filters: the drop path loses ~3 dB, the received "one" level
	// falls below the OOK threshold, and products silently read low —
	// the failure mode the tuning loop exists to prevent.
	u, err := NewOEUnit(DefaultConfig(4, 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := u.Multiply(200, 201, nil)
	if err != nil || healthy != 200*201 {
		t.Fatalf("healthy multiply = %d, %v", healthy, err)
	}
	u.InjectDetuning(true)
	corrupted, err := u.Multiply(200, 201, nil)
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == healthy {
		t.Error("a detuned filter bank should corrupt the product")
	}
	u.InjectDetuning(false)
	if again, _ := u.Multiply(200, 201, nil); again != healthy {
		t.Error("re-locking the rings should restore correctness")
	}
}

func TestOperandRangeChecks(t *testing.T) {
	oe, _ := NewOEUnit(DefaultConfig(4, 4), 1)
	if _, err := oe.Multiply(16, 1, nil); err == nil {
		t.Error("OE out-of-range neuron should error")
	}
	oo, _ := NewOOUnit(DefaultConfig(4, 4), 1)
	if _, err := oo.Multiply(1, 16, nil); err == nil {
		t.Error("OO out-of-range synapse should error")
	}
	if _, err := oe.DotProduct([]uint64{1}, []uint64{1, 2}, nil); err == nil {
		t.Error("OE length mismatch should error")
	}
	if _, err := oo.DotProduct([]uint64{1}, []uint64{1, 2}, nil); err == nil {
		t.Error("OO length mismatch should error")
	}
}

func TestUnitConstructorValidation(t *testing.T) {
	if _, err := NewOEUnit(DefaultConfig(0, 4), 1); err == nil {
		t.Error("invalid config should error")
	}
	if _, err := NewOEUnit(DefaultConfig(4, 4), 0); err == nil {
		t.Error("zero terms should error")
	}
	if _, err := NewOOUnit(DefaultConfig(4, 4), 0); err == nil {
		t.Error("zero terms should error")
	}
}

func TestOOChargesMoreLaserThanOE(t *testing.T) {
	// Table II: OO laser energy exceeds OE's for the same work.
	cfg := DefaultConfig(4, 8)
	oe, err := NewOEUnit(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	oo, err := NewOOUnit(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	ledOE, ledOO := optsim.NewLedger(), optsim.NewLedger()
	if _, err := oe.Multiply(123, 45, ledOE); err != nil {
		t.Fatal(err)
	}
	if _, err := oo.Multiply(123, 45, ledOO); err != nil {
		t.Fatal(err)
	}
	if ledOO.Energy(optsim.CatLaser) <= ledOE.Energy(optsim.CatLaser) {
		t.Errorf("OO laser %v should exceed OE laser %v",
			ledOO.Energy(optsim.CatLaser), ledOE.Energy(optsim.CatLaser))
	}
	// And the OO electrical-add energy is lower: the MZI chain replaced
	// the per-cycle CLA+shifter accumulation.
	if ledOO.Energy(optsim.CatAdd) >= ledOE.Energy(optsim.CatAdd) {
		t.Errorf("OO add %v should be below OE add %v",
			ledOO.Energy(optsim.CatAdd), ledOE.Energy(optsim.CatAdd))
	}
}

func TestOOFasterThanOEPerMultiply(t *testing.T) {
	cfg := DefaultConfig(4, 8)
	oe, _ := NewOEUnit(cfg, 1)
	oo, _ := NewOOUnit(cfg, 1)
	ledOE, ledOO := optsim.NewLedger(), optsim.NewLedger()
	if _, err := oe.Multiply(200, 201, ledOE); err != nil {
		t.Fatal(err)
	}
	if _, err := oo.Multiply(200, 201, ledOO); err != nil {
		t.Fatal(err)
	}
	if ledOO.Latency() >= ledOE.Latency() {
		t.Errorf("OO latency %v should be below OE latency %v (single-pass vs per-bit electrical cycles)",
			ledOO.Latency(), ledOE.Latency())
	}
}
