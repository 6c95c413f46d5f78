// Package interconnect models PIXEL's two-dimensional photonic fabric
// (Figure 3): OMAC tiles arranged in a grid, connected by x- and
// y-dimension WDM waveguides operated in the multiple-write-single-read
// (MWSR) discipline of Section III-A — every tile owns a dedicated band
// of wavelengths on which it fires its input neurons, and every tile on
// the waveguide hears all bands on its home channel.
//
// The package answers the architectural questions the paper's
// communication model needs: wavelength allocation (with the 128-channel
// comb-laser ceiling), serialization latency for firing a neuron
// vector, per-hop flight time, broadcast energy, and the worst-case link
// budget across all listener ring pass-bys.
package interconnect

import (
	"fmt"

	"pixel/internal/photonics"
	"pixel/internal/phy"
)

// MaxWavelengths is the per-waveguide WDM channel ceiling: the paper's
// on-chip comb laser provides up to 128 wavelengths per channel.
const MaxWavelengths = 128

// Grid is a rows x cols arrangement of OMAC tiles with photonic x/y
// interconnect.
type Grid struct {
	// Rows and Cols give the tile arrangement.
	Rows, Cols int
	// Lanes is the number of wavelengths each tile transmits on (the
	// OMAC lane count L).
	Lanes int
	// BitRate is the optical line rate [Hz].
	BitRate float64
	// TilePitch is the center-to-center tile spacing [m].
	TilePitch float64
	// MRR holds the ring parameters of the listener filter banks.
	MRR photonics.MRRParams
	// PD is the receiving detector.
	PD photonics.Photodetector
	// MarginDB is the link-budget margin [dB].
	MarginDB float64
}

// NewGrid validates and returns a tile grid. It errors when a row or
// column would need more wavelengths than the comb laser provides —
// the scalability ceiling of the MWSR discipline.
func NewGrid(rows, cols, lanes int, bitRate float64) (*Grid, error) {
	g := &Grid{
		Rows:      rows,
		Cols:      cols,
		Lanes:     lanes,
		BitRate:   bitRate,
		TilePitch: 500 * phy.Micrometer,
		MRR:       photonics.DefaultMRRParams(),
		PD:        photonics.DefaultPhotodetector(),
		MarginDB:  3,
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Validate reports an error for unusable grids.
func (g *Grid) Validate() error {
	switch {
	case g.Rows < 1 || g.Cols < 1:
		return fmt.Errorf("interconnect: grid %dx%d must have at least one tile", g.Rows, g.Cols)
	case g.Lanes < 1:
		return fmt.Errorf("interconnect: lanes must be >= 1")
	case g.BitRate <= 0:
		return fmt.Errorf("interconnect: bit rate must be positive")
	case g.TilePitch <= 0:
		return fmt.Errorf("interconnect: tile pitch must be positive")
	}
	if need := g.Cols * g.Lanes; need > MaxWavelengths {
		return fmt.Errorf("interconnect: row waveguide needs %d wavelengths (%d tiles x %d lanes) > %d available",
			need, g.Cols, g.Lanes, MaxWavelengths)
	}
	if need := g.Rows * g.Lanes; need > MaxWavelengths {
		return fmt.Errorf("interconnect: column waveguide needs %d wavelengths (%d tiles x %d lanes) > %d available",
			need, g.Rows, g.Lanes, MaxWavelengths)
	}
	return nil
}

// Tiles returns the total tile count.
func (g *Grid) Tiles() int { return g.Rows * g.Cols }

// Band returns the wavelength band [lo, hi) tile index i transmits on
// within its waveguide (MWSR: bands are disjoint per writer).
func (g *Grid) Band(i int) (lo, hi int) {
	return i * g.Lanes, (i + 1) * g.Lanes
}

// RowWavelengths returns the number of active wavelengths on a row
// waveguide.
func (g *Grid) RowWavelengths() int { return g.Cols * g.Lanes }

// RowLength returns the physical length of a row waveguide [m].
func (g *Grid) RowLength() float64 { return float64(g.Cols-1) * g.TilePitch }

// ColLength returns the physical length of a column waveguide [m].
func (g *Grid) ColLength() float64 { return float64(g.Rows-1) * g.TilePitch }

// FlightTime returns the worst-case optical flight time across a row
// waveguide [s].
func (g *Grid) FlightTime() float64 {
	wg := photonics.DefaultWaveguide(g.RowLength())
	return wg.Delay()
}

// SerializationLatency returns the time [s] to fire `bits` bits from one
// tile using its Lanes wavelengths in parallel.
func (g *Grid) SerializationLatency(bits int) float64 {
	if bits <= 0 {
		return 0
	}
	slots := phy.CeilDiv(bits, g.Lanes)
	return float64(slots) / g.BitRate
}

// BroadcastLatency returns the time [s] for a fired neuron vector of
// `bits` bits to be valid at every tile of a row: serialization plus the
// worst-case flight.
func (g *Grid) BroadcastLatency(bits int) float64 {
	return g.SerializationLatency(bits) + g.FlightTime()
}

// RowLinkBudget returns the worst-case link budget on a row waveguide:
// the signal from the first tile passes the ring banks of every other
// tile (2 rings per lane per listener pass-by) before its final drop.
func (g *Grid) RowLinkBudget(launchPerWavelength float64) photonics.LinkBudget {
	wg := photonics.DefaultWaveguide(g.RowLength())
	passbys := 0
	if g.Cols > 1 {
		passbys = (g.Cols - 1) * g.Lanes
	}
	return photonics.LinkBudget{
		LaserPowerPerWavelength: launchPerWavelength,
		LossesDB: map[string]float64{
			"modulator":    1.0,
			"waveguide":    wg.LossDB(),
			"ring-passbys": 2 * g.MRR.ThroughLossDB * float64(passbys),
			"drop":         g.MRR.DropLossDB,
		},
		Detector: g.PD,
		MarginDB: g.MarginDB,
	}
}

// RequiredLaunchPower returns the per-wavelength laser power [W] for the
// worst-case row path to close.
func (g *Grid) RequiredLaunchPower() float64 {
	return 1.01 * g.RowLinkBudget(0).RequiredLaserPower()
}

// BroadcastEnergy returns the photonic energy [J] to fire `bits` bits on
// a row: modulation at the writer, laser wall-plug for the serialized
// duration, and detection at the single reader of the MWSR channel.
func (g *Grid) BroadcastEnergy(bits int, laser photonics.Laser) float64 {
	if bits <= 0 {
		return 0
	}
	mod := g.MRR.SwitchEnergyPerBit * float64(bits)
	duration := g.SerializationLatency(bits)
	laserE := laser.PowerPerWavelength * float64(g.Lanes) * duration / laser.WallPlugEfficiency
	detect := g.PD.EnergyPerBit * float64(bits)
	return mod + laserE + detect
}

// WaveguideArea returns the layout area [m^2] of all row and column
// waveguides at the standard pitch.
func (g *Grid) WaveguideArea() float64 {
	wgRow := photonics.DefaultWaveguide(g.RowLength())
	wgCol := photonics.DefaultWaveguide(g.ColLength())
	return float64(g.Rows)*wgRow.Area() + float64(g.Cols)*wgCol.Area()
}
