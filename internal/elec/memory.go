package elec

import (
	"fmt"

	"pixel/internal/phy"
)

// SRAM models the per-tile weight register file of Figure 3 (the "RF
// for filter weight storage"): a words x width 6T array.
type SRAM struct {
	// Words and Width give the organization.
	Words, Width int
	// WriteEnergyPerBit is the dynamic write energy [J/bit] including
	// bitline and sense-amp switching.
	WriteEnergyPerBit float64
	// LeakagePerBit is the static power per cell [W].
	LeakagePerBit float64
}

// NewSRAM returns a 22 nm-class array of the given organization.
func NewSRAM(words, width int) (*SRAM, error) {
	if words < 1 || width < 1 {
		return nil, fmt.Errorf("elec: SRAM organization %dx%d invalid", words, width)
	}
	if words*width > 1<<26 {
		return nil, fmt.Errorf("elec: SRAM %dx%d exceeds the 64 Mb single-array bound", words, width)
	}
	return &SRAM{
		Words:             words,
		Width:             width,
		WriteEnergyPerBit: 3 * phy.Femtojoule,
		LeakagePerBit:     50e-12,
	}, nil
}

// Bits returns the capacity in bits.
func (s *SRAM) Bits() int { return s.Words * s.Width }

// Leakage returns the static power of the array [W].
func (s *SRAM) Leakage() float64 {
	return float64(s.Bits()) * s.LeakagePerBit
}

// WeightRF sizes the register file one OMAC tile needs: lanes synapse
// lanes x elements per lane at the given precision, double-buffered if
// requested.
func WeightRF(lanes, elements, bits int, doubleBuffered bool) (*SRAM, error) {
	if lanes < 1 || elements < 1 || bits < 1 {
		return nil, fmt.Errorf("elec: weight RF parameters must be positive")
	}
	words := lanes * elements
	if doubleBuffered {
		words *= 2
	}
	return NewSRAM(words, bits)
}
