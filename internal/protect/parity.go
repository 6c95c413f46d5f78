package protect

import (
	"fmt"

	"pixel/internal/arch"
	"pixel/internal/bitserial"
)

// maxRetries bounds the parity retry budget; past a dozen sequential
// re-runs the lane is broken, not unlucky.
const maxRetries = 16

// Parity is parity-guarded detect-and-retry: one parity wavelength
// rides along with every transmitted word, and a call whose parity
// check fires is re-run, up to Retries times. Detection is word-level
// parity, so only odd-weight word errors are seen — an even number of
// flips in one word cancels in the parity bit and escapes, exactly as
// it would in hardware. A call that is still dirty after the budget
// ships its last result and increments GaveUp.
type Parity struct {
	// Retries is the re-run budget per detected call, in [0, 16]; 0
	// detects but never retries (every detection is a GaveUp).
	Retries int
}

// Name returns "parity".
func (p Parity) Name() string { return "parity" }

// Validate bounds the retry budget.
func (p Parity) Validate() error {
	if p.Retries < 0 || p.Retries > maxRetries {
		return fmt.Errorf("protect: parity retries %d out of [0, %d]", p.Retries, maxRetries)
	}
	return nil
}

// Derate returns the zero derate: parity leaves flip rates alone.
func (p Parity) Derate() Derate { return Derate{} }

// Overhead prices the parity lane: one extra wavelength per
// NativePrecision-bit word on the optical side, the parity
// generator/checker on the electrical side. Retries are measured at
// run time and folded in through WithExecutions, so the a-priori
// execution factor is 1.
func (p Parity) Overhead(d arch.Design) arch.ProtectionOverhead {
	frame := (float64(arch.NativePrecision) + 1) / float64(arch.NativePrecision)
	o := arch.ProtectionOverhead{
		Scheme:           p.Name(),
		OpticalFactor:    frame,
		ElectricalFactor: frame,
		ExecutionFactor:  1,
		LaserFactor:      1,
		TuningFactor:     1,
	}
	if d == arch.EE {
		o.OpticalFactor = 1
	}
	return o
}

// Wrap returns the detect-and-retry engine. If the wrapped engine
// exposes no FaultMeter the detector never fires and the wrapper is a
// counted pass-through.
func (p Parity) Wrap(e bitserial.Stripes) (bitserial.Stripes, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &parityGuard{base: e, retries: p.Retries}
	g.walk, _ = e.(bitserial.Walker)
	if m, ok := e.(FaultMeter); ok {
		g.meter = m
	}
	return g, nil
}

// parityGuard re-runs a dot product while the underlying engine's
// odd-flip word counter moved during it, up to the retry budget.
type parityGuard struct {
	base    bitserial.Stripes
	walk    bitserial.Walker // base, when it walks
	meter   FaultMeter       // nil when the engine exposes no fault telemetry
	retries int
	c       Counters
}

var _ bitserial.Walker = (*parityGuard)(nil)
var _ Metered = (*parityGuard)(nil)

func (g *parityGuard) Counters() Counters { return g.c }

// DotProduct runs the wrapped dot product and retries while the parity
// detector fired during the run (see retry).
func (g *parityGuard) DotProduct(neurons, synapses []uint64) (uint64, bitserial.Stats, error) {
	return g.retry(&call{neurons: neurons, synapses: synapses})
}

// DotFromClean implements bitserial.Walker: the retries of DotProduct,
// each attempt walked from the clean value by the wrapped engine's
// DotFromClean.
func (g *parityGuard) DotFromClean(neurons func() []uint64, synapses []uint64, clean uint64) (uint64, error) {
	v, _, err := g.retry(&call{window: neurons, synapses: synapses, clean: clean})
	return v, err
}

// retry runs c and re-runs it while the parity detector fired during
// the run, up to the budget. Each retry consumes fresh fault draws from
// the wrapped engine's streams — a re-run is a new transmission, not a
// replay.
func (g *parityGuard) retry(c *call) (uint64, bitserial.Stats, error) {
	g.c.Calls++
	var st bitserial.Stats
	for attempt := 0; ; attempt++ {
		var before int64
		if g.meter != nil {
			before = g.meter.OddFlipWords()
		}
		v, s, err := c.exec(g.base, g.walk)
		if err != nil {
			return 0, bitserial.Stats{}, err
		}
		addStats(&st, s)
		g.c.Executions++
		if g.meter == nil || g.meter.OddFlipWords() == before {
			return v, st, nil // no detectable word error during the run
		}
		if attempt == g.retries {
			g.c.GaveUp++
			return v, st, nil // budget exhausted: ship the last attempt
		}
		g.c.Retries++
	}
}
