package arch

import (
	"math"

	"pixel/internal/elec"
)

// RoundTime returns the duration [s] of one round: the ensemble
// consuming one burst on every lane (ConcurrentOps() operations).
//
//   - EE: P0 bit-serial cycles, each as long as the wide CLA's critical
//     path (or the clock, whichever dominates). Wider lanes -> deeper
//     carry network, but only logarithmically, so per-op latency falls
//     with B (Figure 8's monotone EE curve).
//   - OE: P0 cycles, each transmitting a B-slot optical burst at
//     10 GHz. Bursts longer than the electrical cycle stall the EP, and
//     the deserialization tree deepens quadratically with B — the
//     source of Figure 8's U shape.
//   - OO: a single optical pass (the MZI chain of Eq. 10) plus the
//     burst, the comparator-ladder settling (steeper in B than OE's
//     slicer) and one electrical merge cycle.
func RoundTime(cfg Config) float64 {
	cal := cfg.Cal
	p0 := float64(NativePrecision)
	b := float64(cfg.Bits)
	burst := b * cal.SlotTime()
	quad := cal.DeserializeQuad * (b * b / 64)

	switch cfg.Design {
	case EE:
		cla := float64(elec.CLALogicDepth(cfg.AccumulatorWidth())) * cfg.Tech.GateDelay
		cycle := math.Max(cal.ElectricalCycle, cla)
		return cal.RoundOverhead + p0*cycle
	case OE:
		cycle := math.Max(cal.ElectricalCycle, burst) + quad
		return cal.RoundOverhead + p0*cycle
	case OO:
		chain := ooChainDelay(cal)
		ladder := cal.OOLadderQuadFactor * quad
		return cal.RoundOverhead + chain + math.Max(cal.ElectricalCycle, burst) + ladder + cal.ElectricalCycle
	default:
		return math.Inf(1)
	}
}

// ooChainDelay returns the propagation delay of the P0-stage MZI
// accumulation chain (paper Eq. 10 structure: stage arms plus
// bit-period-matched inter-stage paths).
func ooChainDelay(cal *Calibration) float64 {
	// 2 mm arms at n_Si, inter-stage paths cut to one bit period: each
	// of the P0 stages contributes its arm flight plus one slot.
	const armDelay = 23.2e-12 // 2 mm * n_Si / c
	return float64(NativePrecision) * (armDelay + cal.SlotTime())
}
