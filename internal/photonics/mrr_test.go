package photonics

import (
	"math"
	"testing"

	"pixel/internal/phy"
)

func relEq(got, want, rel float64) bool {
	if want == 0 {
		return math.Abs(got) < 1e-15
	}
	return math.Abs(got-want) <= rel*math.Abs(want)
}

func TestMRRSPathMatchesPaper(t *testing.T) {
	p := DefaultMRRParams()
	// Paper: 2*pi*7.5um ~= 47.1 um.
	if !relEq(p.SPathLength(), 47.1*phy.Micrometer, 0.01) {
		t.Errorf("S-path length = %v, want ~47.1um", p.SPathLength())
	}
	// Paper Eq. 7: 0.547 ps.
	if !relEq(p.SPathDelay(), 0.547*phy.Picosecond, 0.01) {
		t.Errorf("S-path delay = %v, want ~0.547ps", p.SPathDelay())
	}
}

func TestMRRParamsValidate(t *testing.T) {
	good := DefaultMRRParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Radius = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero radius should fail validation")
	}
	bad = good
	bad.ExtinctionDB = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero extinction should fail validation")
	}
}

func TestDoubleMRRFilterANDTruthTable(t *testing.T) {
	pd := DefaultPhotodetector()
	inputOn := 1 * phy.Milliwatt // healthy received power
	f := NewDoubleMRRFilter(3)

	// A=1 (light present), B=1 (ring on) -> output 1.
	f.On = true
	if !f.AND(inputOn, pd) {
		t.Error("AND(1,1) = 0, want 1")
	}
	// A=1, B=0 -> extinction-level leakage only -> 0.
	f.On = false
	if f.AND(inputOn, pd) {
		t.Error("AND(1,0) = 1, want 0")
	}
	// A=0 (no light) -> 0 regardless of B.
	f.On = true
	if f.AND(0, pd) {
		t.Error("AND(0,1) = 1, want 0")
	}
	f.On = false
	if f.AND(0, pd) {
		t.Error("AND(0,0) = 1, want 0")
	}
}

func TestDoubleMRRFilterWavelengthSelectivity(t *testing.T) {
	f := NewDoubleMRRFilter(2)
	f.On = true
	// The resonant channel crosses with low loss...
	cross := f.CrossField(2)
	if cross < FieldLoss(1.0) {
		t.Errorf("resonant cross field %v too lossy", cross)
	}
	// ...while other channels see only extinction-level leakage.
	leak := f.CrossField(5)
	if leak > FieldLoss(19) {
		t.Errorf("non-resonant leakage field %v too strong", leak)
	}
	// Off-resonance channels continue on the bar path nearly unattenuated.
	bar := f.BarField(5)
	if bar < FieldLoss(0.2) {
		t.Errorf("non-resonant bar field %v too lossy", bar)
	}
}

func TestDoubleMRRFilterEnergyConservationBound(t *testing.T) {
	// Passive device: cross^2 + bar^2 <= 1 for every state and channel.
	for _, on := range []bool{true, false} {
		for _, detuned := range []bool{true, false} {
			f := NewDoubleMRRFilter(0)
			f.On = on
			f.Detuned = detuned
			for ch := 0; ch < 3; ch++ {
				c, b := f.CrossField(ch), f.BarField(ch)
				if c*c+b*b > 1.0+1e-12 {
					t.Errorf("on=%v detuned=%v ch=%d: cross^2+bar^2 = %v > 1",
						on, detuned, ch, c*c+b*b)
				}
			}
		}
	}
}

func TestDoubleMRRFilterDetunedDegrades(t *testing.T) {
	healthy := NewDoubleMRRFilter(0)
	healthy.On = true
	drifted := NewDoubleMRRFilter(0)
	drifted.On = true
	drifted.Detuned = true
	if drifted.CrossField(0) >= healthy.CrossField(0) {
		t.Error("detuned ring should couple less power than a tuned ring")
	}
}

func TestDoubleMRRFilterEnergyAndArea(t *testing.T) {
	f := NewDoubleMRRFilter(0)
	// Paper worked example: one double filter, 4 bits -> 2 rings * 500 fJ * 4.
	if got := f.EnergyPerCycle(4); !relEq(got, 4*phy.Nanojoule/1000, 1e-9) {
		t.Errorf("EnergyPerCycle(4) = %v, want 4pJ", got)
	}
	if f.Delay() <= 0 {
		t.Error("delay must be positive")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative bits should panic")
		}
	}()
	f.EnergyPerCycle(-1)
}

func TestPaperOEWorkedExampleMRREnergy(t *testing.T) {
	// Paper Section IV-C: 128 MRRs x 500 fJ x 4 bits x 4 cycles = 1.024 nJ.
	// 128 MRRs = 64 double filters; per double filter per cycle:
	// EnergyPerCycle(4 bits) = 2*500fJ*4 = 4 pJ; 64 filters * 4 cycles.
	f := NewDoubleMRRFilter(0)
	total := 64.0 * 4.0 * f.EnergyPerCycle(4)
	if !relEq(total, 1.024*phy.Nanojoule, 1e-9) {
		t.Errorf("worked example = %v, want 1.024 nJ", total)
	}
}

func TestFieldAndPowerLoss(t *testing.T) {
	// 3 dB power loss halves power; field factor is sqrt(1/2).
	if !relEq(PowerLoss(3.0102999566), 0.5, 1e-9) {
		t.Errorf("PowerLoss(3dB) = %v", PowerLoss(3.0102999566))
	}
	if !relEq(FieldLoss(3.0102999566), math.Sqrt(0.5), 1e-9) {
		t.Errorf("FieldLoss(3dB) = %v", FieldLoss(3.0102999566))
	}
	if PowerLoss(0) != 1 || FieldLoss(0) != 1 {
		t.Error("0 dB loss must be unity")
	}
}
