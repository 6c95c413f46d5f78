package thermal

import (
	"math"
	"testing"
	"testing/quick"

	"pixel/internal/phy"
)

func TestModelValidate(t *testing.T) {
	if err := DefaultRingModel().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultRingModel()
	bad.LockFraction = 1
	if err := bad.Validate(); err == nil {
		t.Error("lock fraction 1 should fail")
	}
	bad = DefaultRingModel()
	bad.DriftPerKelvin = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero drift should fail")
	}
}

func TestLockToleranceKelvin(t *testing.T) {
	m := DefaultRingModel()
	// 0.25 * 0.8nm / 0.08nm/K = 2.5 K.
	if got := m.LockToleranceKelvin(); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("lock tolerance = %v K, want 2.5", got)
	}
}

func TestRingStartsLockedAtBias(t *testing.T) {
	r, err := NewRing(DefaultRingModel(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Locked(0) {
		t.Error("ring must start locked at nominal ambient")
	}
	if got := r.DetuningKelvin(0); got != 0 {
		t.Errorf("initial detuning = %v K", got)
	}
	// Heater holds the full bias at nominal.
	if got := r.HeaterPower(); math.Abs(got-10*0.25*phy.Milliwatt) > 1e-12 {
		t.Errorf("heater power = %v", got)
	}
}

func TestSmallDriftStaysLockedWithoutControl(t *testing.T) {
	r, _ := NewRing(DefaultRingModel(), 10)
	if !r.Locked(2.0) { // within the 2.5 K tolerance
		t.Error("2 K drift should remain within lock")
	}
	if r.Locked(3.0) {
		t.Error("3 K drift must detune an uncontrolled ring")
	}
}

func TestControllerRelocksAfterHotStep(t *testing.T) {
	r, _ := NewRing(DefaultRingModel(), 10)
	steps, err := r.LockTime(5.0, 100) // chip heats 5 K
	if err != nil {
		t.Fatal(err)
	}
	if steps == 0 || steps > 10 {
		t.Errorf("re-lock took %d steps, want a handful", steps)
	}
	// After re-locking to a hotter ambient the heater supplies less.
	if r.HeaterPower() >= 10*0.25*phy.Milliwatt {
		t.Error("hotter ambient should reduce heater power")
	}
}

func TestControllerRelocksAfterColdStep(t *testing.T) {
	r, _ := NewRing(DefaultRingModel(), 10)
	if _, err := r.LockTime(-5.0, 100); err != nil {
		t.Fatal(err)
	}
	if r.HeaterPower() <= 10*0.25*phy.Milliwatt {
		t.Error("colder ambient should raise heater power")
	}
}

func TestHeaterRangeLimit(t *testing.T) {
	// Max heater 10 mW at 0.25 mW/K = 40 K of authority; bias 10 K.
	r, _ := NewRing(DefaultRingModel(), 10)
	// Cooling by 50 K needs bias+50 = 60 K > 40 K of heater: must fail.
	if _, err := r.LockTime(-50, 200); err == nil {
		t.Error("drift beyond heater authority must be reported")
	}
	// Heating by 50 K needs heater below 0: also uncorrectable.
	r2, _ := NewRing(DefaultRingModel(), 10)
	if _, err := r2.LockTime(50, 200); err == nil {
		t.Error("heating beyond the bias must be reported")
	}
}

func TestControlConvergesProperty(t *testing.T) {
	f := func(raw int8) bool {
		step := float64(raw) / 8 // -16..16 K, within authority
		if step < -25 || step > 9 {
			return true
		}
		r, err := NewRing(DefaultRingModel(), 10)
		if err != nil {
			return false
		}
		_, err = r.LockTime(step, 200)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(DefaultRingModel(), -1); err == nil {
		t.Error("negative bias should error")
	}
	bad := DefaultRingModel()
	bad.MaxHeaterPower = 0
	if _, err := NewRing(bad, 1); err == nil {
		t.Error("invalid model should error")
	}
}

// track runs the control loop over a sinusoidal ambient swing of the
// given amplitude [K] and period, one sample per control step for n
// steps, and returns the fraction of steps the ring stayed locked and
// the peak absolute detuning [K]: a standing proxy for the periodic
// workload-driven heating the tuning loop must ride.
func track(r *Ring, amplitude float64, period, n int) (lockedFrac, peakDetuneK float64) {
	locked := 0
	for i := 0; i < n; i++ {
		a := amplitude * math.Sin(2*math.Pi*float64(i)/float64(period))
		if r.Locked(a) {
			locked++
		}
		peakDetuneK = max(peakDetuneK, math.Abs(r.DetuningKelvin(a)))
		r.Step(a)
	}
	return float64(locked) / float64(n), peakDetuneK
}

func TestTrackSlowSineStaysLocked(t *testing.T) {
	// A +-8 K swing over 200 control steps is slow enough for the loop
	// to track continuously.
	r, _ := NewRing(DefaultRingModel(), 10)
	frac, peak := track(r, 8, 200, 1000)
	if frac < 0.99 {
		t.Errorf("locked fraction = %v, want ~1 for a slow swing", frac)
	}
	if peak >= r.Model.LockToleranceKelvin() {
		t.Errorf("peak detuning %v K should stay inside the %v K tolerance", peak, r.Model.LockToleranceKelvin())
	}
}

func TestTrackFastSwingLosesLock(t *testing.T) {
	// The same amplitude swinging every 4 steps outruns the integral
	// loop: lock drops measurably.
	r, _ := NewRing(DefaultRingModel(), 10)
	frac, peak := track(r, 8, 4, 1000)
	if frac > 0.9 {
		t.Errorf("locked fraction = %v, want visible dropout on a fast swing", frac)
	}
	if peak <= r.Model.LockToleranceKelvin() {
		t.Errorf("peak detuning %v K should exceed tolerance on a fast swing", peak)
	}
}

func TestBankTuningPower(t *testing.T) {
	m := DefaultRingModel()
	p, err := BankTuningPower(m, 128, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 128 rings x 10 K x 0.25 mW/K = 320 mW.
	if math.Abs(p-0.32) > 1e-12 {
		t.Errorf("bank power = %v, want 0.32 W", p)
	}
	// A hotter chip needs less tuning power.
	p2, _ := BankTuningPower(m, 128, 10, 5)
	if p2 >= p {
		t.Error("hotter ambient should cut tuning power")
	}
	// Holding beyond the heater range errors.
	if _, err := BankTuningPower(m, 8, 100, 0); err == nil {
		t.Error("out-of-range hold should error")
	}
	if _, err := BankTuningPower(m, -1, 1, 0); err == nil {
		t.Error("negative ring count should error")
	}
	// Saturated cold side clamps at zero.
	p3, err := BankTuningPower(m, 8, 2, 10)
	if err != nil || p3 != 0 {
		t.Errorf("over-hot bank should need zero power, got %v, %v", p3, err)
	}
}

// TestZeroDriftAmbientHoldsBiasProperty: with the ambient pinned at
// nominal (zero offset), the controller is already at its fixed point
// for ANY valid model and bias — every Step must leave the heater
// exactly at bias, the residual detuning at zero, and the ring locked.
// A controller that drifts under zero stimulus would corrupt every
// Monte-Carlo trial whose sampled excursion is zero.
func TestZeroDriftAmbientHoldsBiasProperty(t *testing.T) {
	f := func(rawBias, rawPPK, rawMax uint8) bool {
		m := DefaultRingModel()
		m.HeaterPowerPerKelvin = (0.05 + float64(rawPPK)/256) * phy.Milliwatt
		m.MaxHeaterPower = (1 + float64(rawMax)/8) * phy.Milliwatt
		bias := float64(rawBias) / 16 // 0..16 K
		if bias > m.MaxHeaterPower/m.HeaterPowerPerKelvin {
			return true // bias outside heater authority: not a valid operating point
		}
		r, err := NewRing(m, bias)
		if err != nil {
			return false
		}
		for i := 0; i < 32; i++ {
			if resid := r.Step(0); resid != 0 {
				return false
			}
			if r.HeaterPower() != bias*m.HeaterPowerPerKelvin {
				return false
			}
		}
		return r.Locked(0) && r.DetuningKelvin(0) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestHeaterSaturatesAtMaxPowerProperty: when the ambient drops so far
// that nulling it needs more heat than the heater has, the controller
// must pin the heater exactly at MaxHeaterPower — never beyond, never
// oscillating below — and the residual must equal the physics shortfall
// ambient + maxK - bias. The clamp is what the Monte-Carlo multiply
// path prices as residual detuning.
func TestHeaterSaturatesAtMaxPowerProperty(t *testing.T) {
	f := func(rawCold uint8) bool {
		m := DefaultRingModel()
		bias := 10.0
		maxK := m.MaxHeaterPower / m.HeaterPowerPerKelvin
		// Ambient far enough below nominal that bias - ambient > maxK.
		ambient := -(maxK - bias) - 1 - float64(rawCold)/4
		r, err := NewRing(m, bias)
		if err != nil {
			return false
		}
		for i := 0; i < 64; i++ {
			r.Step(ambient)
			if r.HeaterPower() > m.MaxHeaterPower+1e-18 {
				return false // heater exceeded its physical range
			}
		}
		if math.Abs(r.HeaterPower()-m.MaxHeaterPower) > 1e-12*m.MaxHeaterPower {
			return false // controller failed to use its full authority
		}
		shortfall := ambient + maxK - bias
		return math.Abs(r.DetuningKelvin(ambient)-shortfall) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestHeaterFloorsAtZeroProperty is the mirror clamp: a hot excursion
// beyond the bias can only be corrected down to heater-off; the
// residual is then ambient - bias exactly.
func TestHeaterFloorsAtZeroProperty(t *testing.T) {
	f := func(rawHot uint8) bool {
		m := DefaultRingModel()
		bias := 10.0
		ambient := bias + 1 + float64(rawHot)/4
		r, err := NewRing(m, bias)
		if err != nil {
			return false
		}
		for i := 0; i < 64; i++ {
			r.Step(ambient)
			if r.HeaterPower() < 0 {
				return false
			}
		}
		if r.HeaterPower() != 0 {
			return false
		}
		return math.Abs(r.DetuningKelvin(ambient)-(ambient-bias)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
