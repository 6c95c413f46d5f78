// Package protect implements fault-mitigation schemes for the PIXEL
// bit-serial datapath. A Scheme wraps a bitserial.Stripes engine —
// typically a fault-injecting bitserial.PerturbedEngine — behind the
// same interface, so the Monte-Carlo variation engine can run the
// identical inference twice, unprotected and protected, from the same
// seed streams and report the yield recovered by mitigation.
//
// Protection is never free: every scheme also prices itself as an
// arch.ProtectionOverhead so protected designs appear as honest
// energy/latency/area points in the cost model.
package protect

import (
	"pixel/internal/arch"
	"pixel/internal/bitserial"
)

// Scheme is one fault-mitigation strategy.
type Scheme interface {
	// Name is the scheme's stable identifier ("tmr", "parity", ...).
	Name() string
	// Validate rejects out-of-range scheme parameters.
	Validate() error
	// Wrap returns a Stripes engine whose DotProduct runs the wrapped
	// engine's under the scheme's protection. Given a
	// bitserial.Walker it returns one, whose walk runs each execution
	// through the wrapped engine's DotFromClean; the wrapper's walk
	// needs a wrapped engine that walks. The wrapper inherits the
	// wrapped engine's concurrency contract (a PerturbedEngine is not
	// safe for concurrent use, so neither is its wrapper).
	Wrap(e bitserial.Stripes) (bitserial.Stripes, error)
	// Derate describes how the scheme reduces the physical flip rates
	// themselves (guard-banding, recalibration); datapath-level schemes
	// return the zero Derate.
	Derate() Derate
	// Overhead prices the scheme on a design as multiplicative
	// energy/latency/area factors.
	Overhead(d arch.Design) arch.ProtectionOverhead
}

// Derate is a rate-level mitigation: adjustments applied to the
// variation model and the sampled perturbation before flip rates are
// computed. The zero value changes nothing.
type Derate struct {
	// TrimFactor in (0, 1] scales the static per-part resonance offset:
	// a post-fabrication trim absorbs all but this fraction of the fab
	// excursion. 0 means untrimmed.
	TrimFactor float64
	// ExtraTuningSteps adds control steps to the thermal tuning loop
	// before the part is declared operational (periodic recalibration
	// re-converges the loop, so the steady-state residual matches the
	// longer settle).
	ExtraTuningSteps int
	// ThresholdGuard >= 1 divides the comparator threshold offset: the
	// guard-banded ladder re-centres its thresholds at calibration
	// time, leaving this fraction of the excursion.
	ThresholdGuard float64
	// ExtraBiasKelvin deepens the thermal bias point, buying the heater
	// symmetric authority over hot and cold ambient swings at the price
	// of proportionally more static tuning power.
	ExtraBiasKelvin float64
}

// Counters is the mitigation work a wrapped engine performed.
type Counters struct {
	// Calls is the number of protected dot products — the wrapper's
	// DotProduct calls, however often each ran underneath.
	Calls int64 `json:"calls"`
	// Executions is how many times the underlying datapath actually
	// ran, including redundant copies, retries and arbiter runs.
	Executions int64 `json:"executions"`
	// Retries counts sequential re-executions: parity-triggered re-runs
	// and redundancy tie-break arbiter runs.
	Retries int64 `json:"retries"`
	// Disagreements counts redundant calls whose copies did not all
	// agree (the votes mitigation actually changed or confirmed).
	Disagreements int64 `json:"disagreements"`
	// GaveUp counts calls that exhausted the retry budget and shipped a
	// still-suspect result.
	GaveUp int64 `json:"gave_up"`
}

// Metered is implemented by wrapped engines that track mitigation
// work.
type Metered interface {
	Counters() Counters
}

// FaultMeter is the telemetry surface a detect-and-retry scheme needs
// from the underlying faulty engine: a count of word-level errors its
// detection code can see. bitserial.PerturbedEngine implements it via
// odd-flip-word parity; a clean engine (no meter) never triggers a
// retry.
type FaultMeter interface {
	OddFlipWords() int64
}

// call is one protected dot product: its operands, and on a walk its
// neuron source and clean value (see bitserial.Walker).
type call struct {
	neurons  []uint64
	window   func() []uint64 // non-nil on a walk
	synapses []uint64
	clean    uint64
}

// exec runs c once on base; walk is base as a bitserial.Walker, nil
// when it is not one, and a walk needs one.
func (c *call) exec(base bitserial.Stripes, walk bitserial.Walker) (uint64, bitserial.Stats, error) {
	if c.window == nil {
		return base.DotProduct(c.neurons, c.synapses)
	}
	v, err := walk.DotFromClean(c.window, c.synapses, c.clean)
	return v, bitserial.Stats{}, err
}

// addStats accumulates s into dst (bitserial.Stats keeps its add
// method unexported).
func addStats(dst *bitserial.Stats, s bitserial.Stats) {
	dst.Cycles += s.Cycles
	dst.BitANDs += s.BitANDs
	dst.Adds += s.Adds
	dst.Shifts += s.Shifts
}
