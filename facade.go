package pixel

import (
	"context"
	"fmt"

	"pixel/internal/arch"
	"pixel/internal/interconnect"
	"pixel/internal/mapper"
	"pixel/internal/phy"
)

// PowerSummary is the chip-level power view of a design point (see
// internal/arch.Power for the model).
type PowerSummary struct {
	Network string
	Design  Design
	Lanes   int
	Bits    int
	// DynamicW is the average draw while inferring; StaticW the
	// always-on floor (ring tuning, SRAM and logic leakage); LaserW
	// the laser wall-plug draw; TotalW the provisioning figure.
	DynamicW float64
	StaticW  float64
	LaserW   float64
	TotalW   float64
}

// PowerContext returns the chip-level power budget of the named
// network at design point p. ctx cancellation is honoured before any
// model work starts.
func PowerContext(ctx context.Context, network string, p Point) (PowerSummary, error) {
	if err := ctx.Err(); err != nil {
		return PowerSummary{}, err
	}
	net, err := resolveNetwork(network)
	if err != nil {
		return PowerSummary{}, err
	}
	cfg, err := p.config()
	if err != nil {
		return PowerSummary{}, err
	}
	pw, err := arch.Power(net, cfg)
	if err != nil {
		return PowerSummary{}, err
	}
	return PowerSummary{
		Network:  network,
		Design:   p.Design,
		Lanes:    p.Lanes,
		Bits:     p.Bits,
		DynamicW: pw.DynamicW.Total(),
		StaticW:  pw.TotalStaticW(),
		LaserW:   pw.LaserIdleW,
		TotalW:   pw.TotalW(),
	}, nil
}

// AreaContext returns the MAC-unit ensemble area [m^2] of design
// point p. ctx cancellation is honoured before any model work starts.
func AreaContext(ctx context.Context, p Point) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	cfg, err := p.config()
	if err != nil {
		return 0, err
	}
	return arch.Area(cfg).Total(), nil
}

// ScheduleSummary is a tile-grid mapping of a network (see
// internal/mapper).
type ScheduleSummary struct {
	Network string `json:"network"`
	Rows    int    `json:"rows"`
	Cols    int    `json:"cols"`
	// SequentialS and PipelinedS are the makespans without and with
	// double-buffered weight register files.
	SequentialS float64 `json:"sequential_s"`
	PipelinedS  float64 `json:"pipelined_s"`
	// PreloadJ is the weight-movement energy; Utilization the
	// round-weighted mean tile utilization.
	PreloadJ    float64 `json:"preload_j"`
	Utilization float64 `json:"utilization"`
}

// MapSpec describes one tile-grid scheduling request for MapContext.
type MapSpec struct {
	// Network names the CNN to schedule (see Networks).
	Network string
	// Point is the design point each tile is built from.
	Point Point
	// Rows and Cols shape the tile grid.
	Rows, Cols int
	// PhotonicWeights streams weight preloads over the photonic
	// interconnect instead of the electrical one.
	PhotonicWeights bool
}

// MapContext schedules spec.Network onto a spec.Rows x spec.Cols tile
// grid at spec.Point. ctx cancellation is honoured before any model
// work starts. Unusable grid shapes surface ErrBadGrid.
func MapContext(ctx context.Context, spec MapSpec) (ScheduleSummary, error) {
	if err := ctx.Err(); err != nil {
		return ScheduleSummary{}, err
	}
	net, err := resolveNetwork(spec.Network)
	if err != nil {
		return ScheduleSummary{}, err
	}
	cfg, err := spec.Point.config()
	if err != nil {
		return ScheduleSummary{}, err
	}
	grid, err := interconnect.NewGrid(spec.Rows, spec.Cols, spec.Point.Lanes, 10*phy.Gigahertz)
	if err != nil {
		return ScheduleSummary{}, fmt.Errorf("%w: %v", ErrBadGrid, err)
	}
	transport := mapper.ElectricalPreload
	if spec.PhotonicWeights {
		transport = mapper.PhotonicPreload
	}
	s, err := mapper.MapNetwork(net, grid, cfg, mapper.Options{Transport: transport})
	if err != nil {
		return ScheduleSummary{}, err
	}
	return ScheduleSummary{
		Network:     spec.Network,
		Rows:        spec.Rows,
		Cols:        spec.Cols,
		SequentialS: s.MakespanS,
		PipelinedS:  s.PipelinedMakespanS,
		PreloadJ:    s.PreloadJ,
		Utilization: s.MeanUtilization(),
	}, nil
}

// Ablations re-runs the six-CNN evaluation under each calibration
// ablation and returns (name, OE improvement, OO improvement) rows.
type AblationRow struct {
	Name          string
	Description   string
	OEImprovement float64
	OOImprovement float64
}

// RunAblations exposes the design-choice sensitivity study.
func RunAblations() ([]AblationRow, error) {
	results, err := arch.RunAblations()
	if err != nil {
		return nil, fmt.Errorf("pixel: %w", err)
	}
	out := make([]AblationRow, len(results))
	for i, r := range results {
		out[i] = AblationRow{
			Name:          r.Name,
			Description:   r.Description,
			OEImprovement: r.OEImprovement,
			OOImprovement: r.OOImprovement,
		}
	}
	return out, nil
}
