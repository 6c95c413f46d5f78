package pixel

import (
	"context"
	"fmt"

	"pixel/internal/arch"
	sweepeng "pixel/internal/sweep"
)

// Point is one design point of the paper's exploration space: a MAC
// design, a lane (wavelength) count and a bits/lane burst width. It is
// the value the evaluation API shares — EvaluateContext, PowerContext,
// AreaContext, MapContext and the sweep engine are all views of a
// Point.
type Point struct {
	Design Design
	Lanes  int
	Bits   int
}

// String renders the point compactly ("OO/L4/B16").
func (p Point) String() string {
	return fmt.Sprintf("%s/L%d/B%d", p.Design, p.Lanes, p.Bits)
}

// Validate reports whether the point names a buildable configuration:
// a known design (ErrUnknownDesign otherwise) with lanes and bits/lane
// in the model's supported ranges (ErrBadPrecision otherwise).
func (p Point) Validate() error {
	ad, err := p.Design.arch()
	if err != nil {
		return err
	}
	if _, err := arch.NewConfig(ad, p.Lanes, p.Bits); err != nil {
		return fmt.Errorf("%w: %v", ErrBadPrecision, err)
	}
	return nil
}

// engineJob converts a point that passed Engine.config (so its design
// is in the enum) to an engine job.
func (p Point) engineJob(network string) sweepeng.Job {
	ad, _ := p.Design.arch()
	return sweepeng.Job{
		Network: network,
		Point:   sweepeng.Point{Design: ad, Lanes: p.Lanes, Bits: p.Bits},
	}
}

// Grid enumerates the cross product of the axes in the canonical
// deterministic order: design-major, then lanes, then bits — the order
// SweepNetworks returns each network's results in.
func Grid(designs []Design, lanesAxis, bitsAxis []int) []Point {
	out := make([]Point, 0, len(designs)*len(lanesAxis)*len(bitsAxis))
	for _, d := range designs {
		for _, lanes := range lanesAxis {
			for _, bits := range bitsAxis {
				out = append(out, Point{Design: d, Lanes: lanes, Bits: bits})
			}
		}
	}
	return out
}

// EvaluateContext prices a full inference of the named network at point
// p through the shared memoized engine. It returns promptly with the
// context's error once ctx is done.
func EvaluateContext(ctx context.Context, network string, p Point) (Result, error) {
	return defaultEngine.EvaluateContext(ctx, network, p)
}

// sweepRow converts an engine NetworkCost (possibly shared with other
// callers) into the row a sweep reports: totals and breakdown, no
// per-layer data.
func sweepRow(network string, p Point, c *arch.NetworkCost) Result {
	e := &c.Energy
	return Result{
		Network:  network,
		Design:   p.Design,
		Lanes:    p.Lanes,
		Bits:     p.Bits,
		EnergyJ:  e.Total(),
		LatencyS: c.Latency,
		EDP:      c.EDP(),
		Breakdown: Breakdown{
			Act:   e.Act,
			Add:   e.Add,
			Comm:  e.Comm,
			Laser: e.Laser,
			Mul:   e.Mul,
			OtoE:  e.OtoE,
		},
	}
}

// resultFromCost converts an engine NetworkCost into an evaluate
// result: the sweep row plus each layer's share.
func resultFromCost(network string, p Point, c *arch.NetworkCost) Result {
	res := sweepRow(network, p, c)
	res.PerLayer = make([]LayerResult, len(c.Layers))
	for i := range c.Layers {
		lc := &c.Layers[i]
		res.PerLayer[i] = LayerResult{
			Name:     lc.Layer,
			EnergyJ:  lc.Energy.Total(),
			LatencyS: lc.Latency,
		}
	}
	return res
}

// config builds the point's validated arch configuration through the
// default engine's memo, wrapping range failures with ErrBadPrecision.
func (p Point) config() (arch.Config, error) {
	return defaultEngine.config(p)
}
