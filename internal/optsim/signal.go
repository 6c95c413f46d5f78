// Package optsim is a discrete-time simulator for on-chip optical
// datapaths. Optical signals are pulse trains: one complex field
// amplitude per bit slot on one wavelength channel. Photonic elements
// (waveguide delays, MRR filters, MZI couplers, detectors) transform
// pulse trains slot by slot; a Ledger accounts energy and path latency as
// elements are applied, so the same simulation that proves functional
// correctness also produces the costs the architecture model charges.
//
// Timing is handled at two granularities: integer bit-slot delays shift
// trains, and residual sub-slot skew is accumulated per signal. Elements
// that combine two signals (MZI couplers) enforce a skew tolerance — the
// synchronization constraint of the paper's Eq. 8: inter-stage waveguides
// must be cut to the bit period.
package optsim

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Signal is an optical pulse train on a single wavelength channel.
type Signal struct {
	// Amps holds one complex field amplitude per bit slot. Power in a
	// slot is |amp|^2 [W].
	Amps []complex128
	// Period is the bit-slot duration [s].
	Period float64
	// Channel is the WDM channel index the signal rides on.
	Channel int
	// Skew is the accumulated sub-slot timing offset [s]. Integer slot
	// delays do not change it; physical path lengths that are not an
	// exact multiple of the bit period do.
	Skew float64
}

// NewDark returns an all-zero (dark) signal of n slots.
func NewDark(n int, period float64, channel int) *Signal {
	if n < 0 {
		panic("optsim: negative slot count")
	}
	if period <= 0 {
		panic("optsim: non-positive slot period")
	}
	return &Signal{Amps: make([]complex128, n), Period: period, Channel: channel}
}

// NewOOK returns an on-off-keyed pulse train: slot i carries power
// `power` when bits[i] != 0 and is dark otherwise. Bit order is as
// given; callers decide LSB-first vs MSB-first framing.
func NewOOK(bits []int, power, period float64, channel int) *Signal {
	if power < 0 {
		panic("optsim: negative power")
	}
	s := NewDark(len(bits), period, channel)
	amp := complex(math.Sqrt(power), 0)
	for i, b := range bits {
		if b != 0 {
			s.Amps[i] = amp
		}
	}
	return s
}

// Clone returns a deep copy of the signal.
func (s *Signal) Clone() *Signal {
	out := &Signal{
		Amps:    make([]complex128, len(s.Amps)),
		Period:  s.Period,
		Channel: s.Channel,
		Skew:    s.Skew,
	}
	copy(out.Amps, s.Amps)
	return out
}

// Slots returns the number of bit slots.
func (s *Signal) Slots() int { return len(s.Amps) }

// Power returns the optical power [W] in slot i; slots outside the train
// are dark.
func (s *Signal) Power(i int) float64 {
	if i < 0 || i >= len(s.Amps) {
		return 0
	}
	a := s.Amps[i]
	return real(a * cmplx.Conj(a))
}

// Powers returns the per-slot power vector [W].
func (s *Signal) Powers() []float64 {
	out := make([]float64, len(s.Amps))
	for i := range s.Amps {
		out[i] = s.Power(i)
	}
	return out
}

// Scale multiplies every slot amplitude by the (complex) factor and
// returns the signal for chaining.
func (s *Signal) Scale(f complex128) *Signal {
	for i := range s.Amps {
		s.Amps[i] *= f
	}
	return s
}

// DelaySlots returns a copy of the signal delayed by n whole bit slots:
// n dark slots are prepended and the train grows accordingly.
func (s *Signal) DelaySlots(n int) *Signal {
	if n < 0 {
		panic("optsim: negative slot delay")
	}
	out := &Signal{
		Amps:    make([]complex128, n+len(s.Amps)),
		Period:  s.Period,
		Channel: s.Channel,
		Skew:    s.Skew,
	}
	copy(out.Amps[n:], s.Amps)
	return out
}

// AddSkew returns a copy with the sub-slot timing offset increased by dt
// [s]. Negative dt (early arrival) is allowed.
func (s *Signal) AddSkew(dt float64) *Signal {
	out := s.Clone()
	out.Skew += dt
	return out
}

// SkewError describes two signals whose sub-slot misalignment exceeds the
// combiner tolerance — pulses would smear across slot boundaries instead
// of adding.
type SkewError struct {
	SkewA, SkewB float64
	Tolerance    float64
}

func (e *SkewError) Error() string {
	return fmt.Sprintf("optsim: combiner inputs misaligned: skews %.3g s and %.3g s differ by more than tolerance %.3g s",
		e.SkewA, e.SkewB, e.Tolerance)
}

// Combine coherently adds two pulse trains slot by slot (the physical
// behaviour of a tuned MZI coupler steering both inputs to one output).
// The signals must share the slot period and channel, and their sub-slot
// skews must agree within tol seconds, or a *SkewError is returned.
// The output length is the longer of the two inputs.
func Combine(a, b *Signal, tol float64) (*Signal, error) {
	if a.Period != b.Period {
		return nil, fmt.Errorf("optsim: combining signals with different slot periods (%g vs %g)", a.Period, b.Period)
	}
	if a.Channel != b.Channel {
		return nil, fmt.Errorf("optsim: combining different wavelength channels (%d vs %d)", a.Channel, b.Channel)
	}
	if d := math.Abs(a.Skew - b.Skew); d > tol {
		return nil, &SkewError{SkewA: a.Skew, SkewB: b.Skew, Tolerance: tol}
	}
	n := len(a.Amps)
	if len(b.Amps) > n {
		n = len(b.Amps)
	}
	out := NewDark(n, a.Period, a.Channel)
	out.Skew = (a.Skew + b.Skew) / 2
	for i := 0; i < n; i++ {
		var va, vb complex128
		if i < len(a.Amps) {
			va = a.Amps[i]
		}
		if i < len(b.Amps) {
			vb = b.Amps[i]
		}
		out.Amps[i] = va + vb
	}
	return out, nil
}
