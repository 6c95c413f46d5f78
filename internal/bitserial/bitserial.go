// Package bitserial implements the Stripes (STR) methodology the paper
// bases every design on (Judd et al., MICRO 2016): multiply-accumulate
// decomposed into bitwise AND of the full input-neuron word against one
// synapse bit per cycle, followed by a left-shift and accumulate.
//
// The engine is bit-exact and built from the functional hardware models
// of package elec (carry-lookahead adder, barrel shifter), so a result
// computed here is the result the electrical (EE) design produces — the
// ground truth the optical OE and OO datapaths are verified against.
package bitserial

import (
	"fmt"

	"pixel/internal/elec"
)

// Stats counts the work a bit-serial computation performed; the
// architecture model converts these to energy and cycles.
type Stats struct {
	// Cycles is the number of bit-serial cycles consumed (one synapse
	// bit per lane per cycle).
	Cycles int
	// BitANDs is the number of single-bit AND operations.
	BitANDs int
	// Adds is the number of accumulator additions.
	Adds int
	// Shifts is the number of barrel-shift operations.
	Shifts int
}

// add accumulates another stats record.
func (s *Stats) add(o Stats) {
	s.Cycles += o.Cycles
	s.BitANDs += o.BitANDs
	s.Adds += o.Adds
	s.Shifts += o.Shifts
}

// Engine is a bit-serial MAC engine for unsigned operands of a fixed
// precision.
type Engine struct {
	bits     int
	accWidth int
	mask     uint64
	adder    *elec.CLAAdder
	shifter  *elec.BarrelShifterFunc
}

// NewEngine returns an engine for `bits`-wide operands able to
// accumulate at least `terms` products without overflow. bits must be in
// [1, 24] (the paper sweeps 1..32 bits/lane but products of two 24-bit
// operands already need 48-bit accumulators; 24 keeps headroom for the
// term count within uint64).
func NewEngine(bits, terms int) (*Engine, error) {
	if bits < 1 || bits > 24 {
		return nil, fmt.Errorf("bitserial: operand width %d out of range [1,24]", bits)
	}
	if terms < 1 {
		return nil, fmt.Errorf("bitserial: term count must be >= 1")
	}
	accWidth := elec.AccumulatorWidth(bits, terms)
	adder, err := elec.NewCLAAdder(accWidth)
	if err != nil {
		return nil, fmt.Errorf("bitserial: %w", err)
	}
	shifter, err := elec.NewBarrelShifter(accWidth)
	if err != nil {
		return nil, fmt.Errorf("bitserial: %w", err)
	}
	return &Engine{
		bits:     bits,
		accWidth: accWidth,
		mask:     (uint64(1) << uint(bits)) - 1,
		adder:    adder,
		shifter:  shifter,
	}, nil
}

// Bits returns the operand precision.
func (e *Engine) Bits() int { return e.bits }

// checkOperand validates that v fits in the engine's precision.
func (e *Engine) checkOperand(name string, v uint64) error {
	if v > e.mask {
		return fmt.Errorf("bitserial: %s %d exceeds %d-bit range", name, v, e.bits)
	}
	return nil
}

// Multiply computes neuron*synapse bit-serially: over Bits() cycles, one
// synapse bit (LSB first) gates the full neuron word through an AND
// array; the gated word is barrel-shifted left by the bit position and
// added into the accumulator by the CLA.
func (e *Engine) Multiply(neuron, synapse uint64) (uint64, Stats, error) {
	if err := e.checkOperand("neuron", neuron); err != nil {
		return 0, Stats{}, err
	}
	if err := e.checkOperand("synapse", synapse); err != nil {
		return 0, Stats{}, err
	}
	return e.multiplyUnchecked(neuron, synapse)
}

// multiplyUnchecked is Multiply without the operand-range checks, for
// callers (DotProduct) that have already validated whole vectors up
// front.
func (e *Engine) multiplyUnchecked(neuron, synapse uint64) (uint64, Stats, error) {
	var acc uint64
	var st Stats
	for j := 0; j < e.bits; j++ {
		sbit := (synapse >> uint(j)) & 1
		// AND array: the full neuron word against one synapse bit.
		var gated uint64
		if sbit == 1 {
			gated = neuron
		}
		st.BitANDs += e.bits
		// Left-shift by the bit position, then accumulate.
		shifted := e.shifter.ShiftLeft(gated, j)
		acc, _ = e.adder.Add(acc, shifted, false)
		st.Shifts++
		st.Adds++
		st.Cycles++
	}
	return acc, st, nil
}

// DotProduct computes the inner product of two equal-length vectors of
// unsigned operands bit-serially. In hardware the lanes run in parallel,
// so the cycle count is Bits() per element position, not per lane; the
// returned Stats reflect that (Cycles = len * Bits, lane-parallel).
func (e *Engine) DotProduct(neurons, synapses []uint64) (uint64, Stats, error) {
	if len(neurons) != len(synapses) {
		return 0, Stats{}, fmt.Errorf("bitserial: vector lengths differ (%d vs %d)", len(neurons), len(synapses))
	}
	// Validate both vectors up front so the per-element multiply loop
	// runs unchecked.
	for i := range neurons {
		if err := e.checkOperand("neuron", neurons[i]); err != nil {
			return 0, Stats{}, err
		}
		if err := e.checkOperand("synapse", synapses[i]); err != nil {
			return 0, Stats{}, err
		}
	}
	var acc uint64
	var st Stats
	for i := range neurons {
		p, ps, err := e.multiplyUnchecked(neurons[i], synapses[i])
		if err != nil {
			return 0, Stats{}, err
		}
		// Merge the product into the running sum with one more CLA add.
		acc, _ = e.adder.Add(acc, p, false)
		ps.Adds++
		st.add(ps)
	}
	return acc, st, nil
}

// ReferenceDot is a plain-integer inner product used by tests as an
// independent oracle.
func ReferenceDot(neurons, synapses []uint64) uint64 {
	var acc uint64
	for i := range neurons {
		acc += neurons[i] * synapses[i]
	}
	return acc
}
