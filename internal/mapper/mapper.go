// Package mapper schedules CNN layers onto the PIXEL tile grid of
// Figure 3: it tiles a layer's E^2*M*C matrix-vector products over the
// OMAC tiles, sizes the filter-weight register files, accounts the
// weight-preload traffic, and produces a per-layer schedule (rounds,
// utilization, makespan) that the top-level simulator and the
// weight-streaming ablation consume.
//
// Mapping discipline (following Section III-C): filters are distributed
// across tiles (one output-neuron lane per OMAC), input-channel groups
// map to lanes, and output pixels stream through time. Synapse weights
// are pre-loaded into each tile's register file before the layer runs;
// the preload can travel electrically or photonically (the paper's
// "photonics could also be utilized to send the weight information").
package mapper

import (
	"fmt"

	"pixel/internal/arch"
	"pixel/internal/cnn"
	"pixel/internal/elec"
	"pixel/internal/interconnect"
	"pixel/internal/phy"
)

// Assignment describes how one layer occupies the grid.
type Assignment struct {
	Layer string
	// FilterTiles is how many tiles hold distinct filters (M spread
	// over the grid); PixelWaves is how many output-pixel waves stream
	// through; ChannelGroups is how many lane-sized input-channel
	// groups each MVM needs.
	FilterTiles   int
	PixelWaves    int
	ChannelGroups int
	// Utilization is the fraction of tile-rounds doing useful work.
	Utilization float64
	// Rounds is the total number of grid rounds for the layer.
	Rounds float64
	// WeightBits is the synapse volume pre-loaded into register files.
	WeightBits float64
}

// Schedule is the whole-network mapping.
type Schedule struct {
	Network     string
	Grid        *interconnect.Grid
	Config      arch.Config
	Assignments []Assignment
	// MakespanS is the end-to-end latency with sequential preloads
	// (each layer's weights load after the previous layer finishes).
	MakespanS float64
	// PipelinedMakespanS is the latency with double-buffered register
	// files: layer i+1's weights stream in while layer i computes, so
	// each stage takes max(compute_i, preload_{i+1}).
	PipelinedMakespanS float64
	// ComputeS and PreloadS split the sequential makespan.
	ComputeS float64
	PreloadS float64
	// PreloadJ is the weight-movement energy (transport-dependent,
	// identical for both buffering disciplines).
	PreloadJ float64

	// computeTimes and preloadTimes hold the per-layer splits.
	computeTimes []float64
	preloadTimes []float64
}

// WeightTransport selects how synapse weights reach the tiles.
type WeightTransport int

const (
	// ElectricalPreload moves weights over on-chip wires.
	ElectricalPreload WeightTransport = iota
	// PhotonicPreload streams weights over the WDM fabric (the
	// paper's suggested extension).
	PhotonicPreload
)

// String implements fmt.Stringer.
func (w WeightTransport) String() string {
	if w == PhotonicPreload {
		return "photonic"
	}
	return "electrical"
}

// Dataflow selects how synapse weights meet the compute.
type Dataflow int

const (
	// WeightStationary pre-loads each layer's unique weights into the
	// tile register files once (the paper's design: "the synapses are
	// pre-loaded into the OMAC").
	WeightStationary Dataflow = iota
	// WeightStreaming sends every weight at the moment of use, with no
	// register files: traffic scales with the MAC count instead of the
	// parameter count. Quantifies what the paper's pre-loading choice
	// saves (everything, for convolutions with high weight reuse;
	// nothing, for FC layers whose weights are used once).
	WeightStreaming
)

// Options configures the mapper.
type Options struct {
	Transport WeightTransport
	Dataflow  Dataflow
	// WeightBits is the stored precision per synapse; zero means the
	// configuration's native precision.
	WeightBits int
}

// MapLayer assigns one layer to the grid under the configuration.
func MapLayer(l cnn.Layer, g *interconnect.Grid, cfg arch.Config, opt Options) (Assignment, error) {
	if err := l.Validate(); err != nil {
		return Assignment{}, err
	}
	if err := g.Validate(); err != nil {
		return Assignment{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Assignment{}, err
	}
	wBits := opt.WeightBits
	if wBits == 0 {
		wBits = arch.NativePrecision
	}

	tiles := g.Tiles()
	counts := l.Counts(cnn.ModePaper)

	var filters, pixels, weights float64
	switch l.Type {
	case cnn.Conv:
		e := float64(l.OutputSize())
		filters = float64(l.M)
		pixels = e * e
		weights = float64(l.M*l.R*l.R*l.C) * float64(wBits)
	case cnn.FC:
		filters = float64(l.Out)
		pixels = 1
		weights = float64(l.In*l.Out) * float64(wBits)
	default:
		return Assignment{}, fmt.Errorf("mapper: unsupported layer type %v", l.Type)
	}
	if opt.Dataflow == WeightStreaming {
		// Every MAC fetches its weight: traffic follows the op count.
		weights = counts.Mul * float64(wBits)
	}

	filterTiles := int(filters)
	if filterTiles > tiles {
		filterTiles = tiles
	}
	filterWaves := phy.CeilDiv(int(filters), tiles)
	channelGroups := 1
	if l.Type == cnn.Conv {
		channelGroups = phy.CeilDiv(l.C, cfg.Lanes)
	} else {
		channelGroups = phy.CeilDiv(l.In, cfg.Lanes)
	}

	// Rounds: the grid executes tiles x lanes x operands-per-burst MAC
	// operations per round (each tile is one OMAC with `lanes`
	// wavelengths).
	workOps := counts.Mul
	gridOps := float64(tiles) * float64(cfg.Lanes) * cfg.OperandsPerBurst()
	rounds := workOps / gridOps
	if rounds < 1 {
		rounds = 1
	}
	// Utilization: last filter wave may leave tiles idle.
	util := filters / (float64(filterWaves) * float64(tiles))
	if util > 1 {
		util = 1
	}

	return Assignment{
		Layer:         l.Name,
		FilterTiles:   filterTiles,
		PixelWaves:    int(pixels) * filterWaves,
		ChannelGroups: channelGroups,
		Utilization:   util,
		Rounds:        rounds,
		WeightBits:    weights,
	}, nil
}

// preloadCost returns the time [s] and energy [J] to move `bits` of
// weights to the tiles and write them into the per-tile register
// files.
func preloadCost(bits float64, g *interconnect.Grid, cfg arch.Config, opt Options) (float64, float64) {
	// Weight-stationary bits land in register-file cells; streamed
	// weights skip storage.
	var rfWrite float64
	if opt.Dataflow == WeightStationary {
		rfRef, err := elec.NewSRAM(1, 8)
		if err != nil {
			panic(err) // static organization, cannot fail
		}
		rfWrite = bits * rfRef.WriteEnergyPerBit
	}

	switch opt.Transport {
	case PhotonicPreload:
		// The WDM fabric streams weights at lanes x line-rate across
		// all rows in parallel; energy is modulation + detection.
		rowBits := bits / float64(g.Rows)
		t := rowBits / (float64(g.Lanes) * g.BitRate)
		perBit := cfg.Cal.ModulatorPerBit + cfg.Cal.PDPerBit +
			cfg.Cal.OELaunchPower/(g.BitRate*cfg.Cal.LaserWallPlug)
		return t, bits*perBit + rfWrite
	default:
		// Electrical: a shared bus at the electrical clock, one word
		// per cycle per row.
		words := bits / float64(arch.NativePrecision)
		t := words / float64(g.Rows) * cfg.Cal.ElectricalCycle
		return t, bits*cfg.Cal.ElinkPerBit + rfWrite
	}
}

// MapNetwork schedules every layer and totals the makespan.
func MapNetwork(net cnn.Network, g *interconnect.Grid, cfg arch.Config, opt Options) (*Schedule, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	s := &Schedule{Network: net.Name, Grid: g, Config: cfg}
	roundTime := arch.RoundTime(cfg)
	for _, l := range net.Layers {
		a, err := MapLayer(l, g, cfg, opt)
		if err != nil {
			return nil, fmt.Errorf("mapper: %s: %w", l.Name, err)
		}
		s.Assignments = append(s.Assignments, a)
		compute := a.Rounds * roundTime
		t, e := preloadCost(a.WeightBits, g, cfg, opt)
		s.computeTimes = append(s.computeTimes, compute)
		s.preloadTimes = append(s.preloadTimes, t)
		s.ComputeS += compute
		s.PreloadS += t
		s.PreloadJ += e
	}
	s.MakespanS = s.ComputeS + s.PreloadS
	s.PipelinedMakespanS = pipelinedMakespan(s.computeTimes, s.preloadTimes)
	return s, nil
}

// pipelinedMakespan overlaps layer i+1's preload with layer i's compute
// (double-buffered register files): the first preload is exposed, then
// every stage takes the longer of its compute and the next preload.
func pipelinedMakespan(compute, preload []float64) float64 {
	if len(compute) == 0 {
		return 0
	}
	total := preload[0]
	for i := range compute {
		stage := compute[i]
		if i+1 < len(preload) && preload[i+1] > stage {
			stage = preload[i+1]
		}
		total += stage
	}
	return total
}

// MeanUtilization returns the round-weighted mean tile utilization.
func (s *Schedule) MeanUtilization() float64 {
	var num, den float64
	for _, a := range s.Assignments {
		num += a.Utilization * a.Rounds
		den += a.Rounds
	}
	if den == 0 {
		return 0
	}
	return num / den
}
