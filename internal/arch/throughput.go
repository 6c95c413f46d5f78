package arch

import (
	"fmt"

	"pixel/internal/cnn"
)

// ThroughputReport summarizes a design point's rate metrics for one
// network — the deployment-facing view of the same cost model
// (inferences/s, average power, efficiency).
type ThroughputReport struct {
	Network string
	Config  Config
	// InferencesPerSecond assumes back-to-back inferences (the layer
	// pipeline drains before the next image starts, matching the
	// latency model's serialization).
	InferencesPerSecond float64
	// AvgPowerW is inference energy over inference latency [W].
	AvgPowerW float64
	// InferencesPerJoule is the energy efficiency [1/J].
	InferencesPerJoule float64
	// EnergyPerInferenceJ and LatencyPerInferenceS restate the raw
	// costs.
	EnergyPerInferenceJ  float64
	LatencyPerInferenceS float64
}

// Throughput computes the rate metrics for a network at a design point.
func Throughput(net cnn.Network, cfg Config) (ThroughputReport, error) {
	c, err := CostNetwork(net, cfg)
	if err != nil {
		return ThroughputReport{}, err
	}
	e := c.Energy.Total()
	l := c.Latency
	if e <= 0 || l <= 0 {
		return ThroughputReport{}, fmt.Errorf("arch: degenerate cost for throughput")
	}
	return ThroughputReport{
		Network:              net.Name,
		Config:               cfg,
		InferencesPerSecond:  1 / l,
		AvgPowerW:            e / l,
		InferencesPerJoule:   1 / e,
		EnergyPerInferenceJ:  e,
		LatencyPerInferenceS: l,
	}, nil
}
