// Package phy provides physical constants and unit helpers shared by the
// photonic and electrical device models.
//
// All quantities in the simulator are carried in SI base units (seconds,
// joules, watts, meters) as float64. The helpers here exist so that code
// reads in the units the PIXEL paper uses (fJ/bit, ps/mm, dB/cm, GHz)
// while storage stays SI.
package phy

import (
	"fmt"
	"math"
)

// Fundamental constants.
const (
	// C is the speed of light in vacuum [m/s].
	C = 299_792_458.0

	// NSilicon is the refractive index of silicon at 1550 nm used
	// throughout the paper (Section IV-A2).
	NSilicon = 3.48

	// GroupVelocitySi is the propagation speed of light in a silicon
	// waveguide [m/s], C / n_Si.
	GroupVelocitySi = C / NSilicon
)

// Unit multipliers. Multiply a value expressed in the named unit by the
// constant to obtain SI base units.
const (
	// Time.
	Second      = 1.0
	Millisecond = 1e-3
	Microsecond = 1e-6
	Nanosecond  = 1e-9
	Picosecond  = 1e-12
	Femtosecond = 1e-15

	// Energy.
	Joule      = 1.0
	Millijoule = 1e-3
	Microjoule = 1e-6
	Nanojoule  = 1e-9
	Picojoule  = 1e-12
	Femtojoule = 1e-15
	Attojoule  = 1e-18

	// Power.
	Watt      = 1.0
	Milliwatt = 1e-3
	Microwatt = 1e-6
	Nanowatt  = 1e-9

	// Length.
	Meter      = 1.0
	Centimeter = 1e-2
	Millimeter = 1e-3
	Micrometer = 1e-6
	Nanometer  = 1e-9

	// Area.
	SquareMeter      = 1.0
	SquareMillimeter = 1e-6
	SquareMicrometer = 1e-12
	SquareNanometer  = 1e-18

	// Frequency.
	Hertz     = 1.0
	Kilohertz = 1e3
	Megahertz = 1e6
	Gigahertz = 1e9
)

// FromDB converts decibels to a linear power ratio.
// FromDB(-3.01) ≈ 0.5.
func FromDB(db float64) float64 {
	return math.Pow(10, db/10)
}

// FromDBm converts a power in dBm to watts.
func FromDBm(dbm float64) float64 {
	return Milliwatt * math.Pow(10, dbm/10)
}

// PropagationDelay returns the time [s] for light to traverse lengthM
// meters of silicon waveguide (n = NSilicon).
func PropagationDelay(lengthM float64) float64 {
	return lengthM / GroupVelocitySi
}

// FormatTime renders a duration in seconds with an engineering-friendly
// unit (s, ms, us, ns, ps, fs).
func FormatTime(s float64) string {
	return formatEng(s, "s")
}

// FormatEnergy renders an energy in joules with an engineering-friendly
// unit (J, mJ, uJ, nJ, pJ, fJ).
func FormatEnergy(j float64) string {
	return formatEng(j, "J")
}

// FormatPower renders a power in watts with an engineering-friendly unit.
func FormatPower(w float64) string {
	return formatEng(w, "W")
}

// FormatArea renders an area in square meters using mm^2, um^2 or nm^2 as
// appropriate.
func FormatArea(m2 float64) string {
	a := math.Abs(m2)
	switch {
	case a == 0:
		return "0 um^2"
	case a >= 1e-7: // 0.1 mm^2 and up
		return trimFloat(m2/SquareMillimeter) + " mm^2"
	case a >= 1e-14: // 0.01 um^2 and up
		return trimFloat(m2/SquareMicrometer) + " um^2"
	default:
		return trimFloat(m2/SquareNanometer) + " nm^2"
	}
}

var engPrefixes = []struct {
	scale  float64
	prefix string
}{
	{1, ""},
	{1e-3, "m"},
	{1e-6, "u"},
	{1e-9, "n"},
	{1e-12, "p"},
	{1e-15, "f"},
	{1e-18, "a"},
}

func formatEng(v float64, unit string) string {
	if v == 0 {
		return "0 " + unit
	}
	a := math.Abs(v)
	for _, p := range engPrefixes {
		if a >= p.scale {
			return trimFloat(v/p.scale) + " " + p.prefix + unit
		}
	}
	last := engPrefixes[len(engPrefixes)-1]
	return trimFloat(v/last.scale) + " " + last.prefix + unit
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	// Trim trailing zeros but keep at least one digit after the point.
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// CeilDiv returns ceil(a/b) for positive integers.
func CeilDiv(a, b int) int {
	if b <= 0 {
		panic("phy.CeilDiv: non-positive divisor")
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// Log2Ceil returns ceil(log2(n)) for n >= 1. Log2Ceil(1) == 0.
func Log2Ceil(n int) int {
	if n < 1 {
		panic("phy.Log2Ceil: n must be >= 1")
	}
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}
