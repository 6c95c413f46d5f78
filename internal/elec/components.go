package elec

import "fmt"

// This file holds structural (gate-count) models for the remaining
// electrical components of the MAC pipelines, and functional models where
// the datapath needs them (barrel shifter).

// ANDArray returns the gate count of an n-bit bitwise AND stage: one gate
// per bit, depth 1. In the EE design this is the "multiplier" of the STR
// methodology — the full neuron word ANDed against one synapse bit.
func ANDArray(n int) GateCount {
	if n < 1 {
		panic("elec.ANDArray: width must be >= 1")
	}
	return GateCount{Gates: n, Depth: 1}
}

// Register returns the gate count of an n-bit register.
func Register(n int) GateCount {
	if n < 1 {
		panic("elec.Register: width must be >= 1")
	}
	return GateCount{Flops: n, Depth: 1}
}

// BarrelShifterGateCount returns the gate count of an n-bit logarithmic
// barrel shifter: log2(n) mux stages of n 2:1 muxes, ~3 NAND2 equivalents
// per mux.
func BarrelShifter(n int) GateCount {
	if n < 1 {
		panic("elec.BarrelShifter: width must be >= 1")
	}
	stages := log2ceilAtLeast1(n)
	return GateCount{Gates: 3 * n * stages, Depth: 2 * stages}
}

func log2ceilAtLeast1(n int) int {
	if n <= 1 {
		return 1
	}
	return log2ceil(n)
}

// ComparatorLadder returns the gate count of a current-comparator ladder
// that resolves `levels` distinct optical amplitude levels (levels-1
// comparators plus a thermometer-to-binary encoder). This is the second,
// more complex O/E converter of the paper (Section II-A3), needed by the
// OO design where pulse amplitudes carry sums.
func ComparatorLadder(levels int) GateCount {
	if levels < 2 {
		panic("elec.ComparatorLadder: need at least 2 levels")
	}
	comparators := levels - 1
	// Each analog comparator is priced as ~12 gate-equivalents (DSENT
	// treats small analog blocks via equivalent digital area/energy);
	// the thermometer->binary encoder is ~2 gates per comparator.
	enc := 2 * comparators
	return GateCount{Gates: 12*comparators + enc, Depth: 3 + log2ceilAtLeast1(comparators)}
}

// Accumulator returns the structural model of a width-bit shift-accumulate
// stage: CLA + barrel shifter + result register. This is the electrical
// processing (EP) unit shared by the EE and OE designs.
func Accumulator(width int) GateCount {
	return CLA(width).Chain(BarrelShifter(width)).Add(Register(width))
}

// AccumulatorWidth returns the accumulator width needed to sum `terms`
// products of two `bits`-wide operands without overflow:
// 2*bits for the product plus ceil(log2(terms)) growth.
func AccumulatorWidth(bits, terms int) int {
	if bits < 1 || terms < 1 {
		panic("elec.AccumulatorWidth: bits and terms must be >= 1")
	}
	return 2*bits + log2ceilAtLeast1(terms)
}

// BarrelShifterFunc is a functional logarithmic barrel shifter.
type BarrelShifterFunc struct {
	width int
	mask  uint64
}

// NewBarrelShifter returns a functional barrel shifter for the given
// word width (1..64).
func NewBarrelShifter(width int) (*BarrelShifterFunc, error) {
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("elec: barrel shifter width %d out of range [1,64]", width)
	}
	mask := ^uint64(0)
	if width < 64 {
		mask = (1 << uint(width)) - 1
	}
	return &BarrelShifterFunc{width: width, mask: mask}, nil
}

// ShiftLeft shifts v left by n bit positions through log2(width) mux
// stages, dropping bits shifted beyond the word width (as the hardware
// does).
func (b *BarrelShifterFunc) ShiftLeft(v uint64, n int) uint64 {
	if n < 0 {
		panic("elec.BarrelShifterFunc: negative shift")
	}
	if n >= b.width {
		return 0
	}
	v &= b.mask
	// Stage-by-stage conditional shift: stage k shifts by 2^k when the
	// corresponding bit of n is set.
	for k := 0; (1<<uint(k)) <= n || k < 1; k++ {
		if (1<<uint(k))&n != 0 {
			v = (v << uint(1<<uint(k))) & b.mask
		}
		if (1 << uint(k)) > n {
			break
		}
	}
	return v
}
