package arch

import (
	"fmt"

	"pixel/internal/cnn"
)

// LayerCost is the energy and latency of one network layer under a
// configuration.
type LayerCost struct {
	Layer   string
	Energy  Breakdown // [J]
	Latency float64   // [s]
	Rounds  float64
}

// NetworkCost is the full-inference cost of a network under a
// configuration.
type NetworkCost struct {
	Network string
	Config  Config
	Layers  []LayerCost
	Energy  Breakdown // [J], summed
	Latency float64   // [s], summed
}

// EDP returns the energy-delay product [J*s] of the inference.
func (n NetworkCost) EDP() float64 {
	return n.Energy.Total() * n.Latency
}

// CostNetwork prices a whole network inference. A layer's energy is the
// per-op costs scaled by its operation counts (multiplies drive the
// mul/o-e/comm/laser categories, adds the accumulation, activations the
// tanh unit); its latency is the rounds needed to stream its multiplies
// through the ensemble times the round time. The per-operation
// breakdown, round time and in-flight operation count depend only on
// the configuration, so they are computed once for every layer.
func CostNetwork(net cnn.Network, cfg Config) (NetworkCost, error) {
	if err := cfg.Validate(); err != nil {
		return NetworkCost{}, err
	}
	if err := net.Validate(); err != nil {
		return NetworkCost{}, err
	}
	per := PerOp(cfg)
	roundTime := RoundTime(cfg)
	concurrent := cfg.ConcurrentOps()
	out := NetworkCost{Network: net.Name, Config: cfg, Layers: make([]LayerCost, 0, len(net.Layers))}
	for _, l := range net.Layers {
		counts := l.Counts(cnn.ModePaper)
		rounds := counts.Mul / concurrent
		if rounds < 1 && counts.Mul > 0 {
			rounds = 1
		}
		lc := LayerCost{
			Layer: l.Name,
			Energy: Breakdown{
				Mul:   counts.Mul * per.Mul,
				Add:   counts.Add * per.Add,
				Act:   counts.Act * per.Act,
				OtoE:  counts.Mul * per.OtoE,
				Comm:  counts.Mul * per.Comm,
				Laser: counts.Mul * per.Laser,
			},
			Latency: rounds * roundTime,
			Rounds:  rounds,
		}
		out.Layers = append(out.Layers, lc)
		out.Energy = out.Energy.Plus(lc.Energy)
		out.Latency += lc.Latency
	}
	if out.Latency <= 0 || out.Energy.Total() <= 0 {
		return NetworkCost{}, fmt.Errorf("arch: degenerate cost for %s under %v", net.Name, cfg.Design)
	}
	return out, nil
}
