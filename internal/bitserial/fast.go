package bitserial

import (
	"fmt"

	"pixel/internal/elec"
)

// Stripes is the one engine method a Monte-Carlo trial and its
// protection wrappers call: a dot product with its work record. The
// gate-model Engine, the word-level FastEngine, the fault-injecting
// PerturbedEngine and every protect wrapper implement it.
type Stripes interface {
	DotProduct(neurons, synapses []uint64) (uint64, Stats, error)
}

var (
	_ Stripes = (*Engine)(nil)
	_ Stripes = (*FastEngine)(nil)
)

// FastEngine computes the same bit-serial results as Engine without
// simulating the CLA adder and barrel shifter cycle by cycle. Both the
// value and the Stats of a Stripes multiply are closed-form — the
// accumulator wraps at the accumulator width, and each multiply costs
// Cycles = bits, BitANDs = bits², Adds = Shifts = bits — so a word-level
// multiply plus masking reproduces the gate model exactly. The gate
// model stays as the oracle; TestFastEngineEquivalence pins the two
// together over random operands.
//
// A FastEngine is stateless after construction and safe for concurrent
// use, which is what lets the parallel qnn pipeline run whole CNNs
// through the Stripes datapath across a worker pool.
type FastEngine struct {
	bits     int
	accWidth int
	mask     uint64
	accMask  uint64
}

// NewFastEngine returns a fast engine with the same operand and
// accumulator geometry as NewEngine(bits, terms).
func NewFastEngine(bits, terms int) (*FastEngine, error) {
	if bits < 1 || bits > 24 {
		return nil, fmt.Errorf("bitserial: operand width %d out of range [1,24]", bits)
	}
	if terms < 1 {
		return nil, fmt.Errorf("bitserial: term count must be >= 1")
	}
	accWidth := elec.AccumulatorWidth(bits, terms)
	if accWidth > 64 {
		return nil, fmt.Errorf("bitserial: accumulator width %d exceeds 64 bits", accWidth)
	}
	accMask := ^uint64(0)
	if accWidth < 64 {
		accMask = (uint64(1) << uint(accWidth)) - 1
	}
	return &FastEngine{
		bits:     bits,
		accWidth: accWidth,
		mask:     (uint64(1) << uint(bits)) - 1,
		accMask:  accMask,
	}, nil
}

// Bits returns the operand precision.
func (e *FastEngine) Bits() int { return e.bits }

// AccumulatorWidth returns the accumulator width in bits.
func (e *FastEngine) AccumulatorWidth() int { return e.accWidth }

// checkOperand validates that v fits in the engine's precision.
func (e *FastEngine) checkOperand(name string, v uint64) error {
	if v > e.mask {
		return fmt.Errorf("bitserial: %s %d exceeds %d-bit range", name, v, e.bits)
	}
	return nil
}

// checkVectors rejects what the gate model's DotProduct rejects, with
// the same errors: vectors of different lengths or an out-of-range
// element. In-range vectors pass on one OR-reduction; only a failing
// one is walked element by element to report the first bad operand,
// neuron before synapse, as the gate model does.
func (e *FastEngine) checkVectors(neurons, synapses []uint64) error {
	if len(neurons) != len(synapses) {
		return fmt.Errorf("bitserial: vector lengths differ (%d vs %d)", len(neurons), len(synapses))
	}
	var or uint64
	for i, a := range neurons {
		or |= a | synapses[i]
	}
	if or <= e.mask {
		return nil
	}
	for i := range neurons {
		if err := e.checkOperand("neuron", neurons[i]); err != nil {
			return err
		}
		if err := e.checkOperand("synapse", synapses[i]); err != nil {
			return err
		}
	}
	return nil
}

// dotStats is the closed-form work record of n dot-product elements.
// Each element is one bit-serial multiply — one synapse bit per cycle
// gating the bits-wide neuron word (bits ANDs per cycle), one shift
// and one accumulate per cycle — plus one merge add into the running
// sum.
func (e *FastEngine) dotStats(n int) Stats {
	return Stats{
		Cycles:  n * e.bits,
		BitANDs: n * e.bits * e.bits,
		Adds:    n * (e.bits + 1),
		Shifts:  n * e.bits,
	}
}

// DotProduct mirrors Engine.DotProduct: per element, one multiply plus
// one merge add, with the running sum wrapping at the accumulator
// width exactly as the CLA does. The product of two bits-wide operands
// always fits the accumulator, so the word multiply is exact.
func (e *FastEngine) DotProduct(neurons, synapses []uint64) (uint64, Stats, error) {
	if err := e.checkVectors(neurons, synapses); err != nil {
		return 0, Stats{}, err
	}
	var acc uint64
	for i := range neurons {
		acc = (acc + neurons[i]*synapses[i]) & e.accMask
	}
	return acc, e.dotStats(len(neurons)), nil
}
