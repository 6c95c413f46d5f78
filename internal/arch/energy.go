package arch

import "pixel/internal/elec"

// Breakdown is a per-component energy account [J], matching the
// categories of the paper's Figure 5 and Table II.
type Breakdown struct {
	Mul   float64 // multiplication (AND stage)
	Add   float64 // accumulation (shift-accumulate / MZI chain)
	Act   float64 // activation function
	OtoE  float64 // optical-to-electrical conversion
	Comm  float64 // data movement in and out
	Laser float64 // laser wall-plug energy
}

// Total returns the summed energy [J].
func (b Breakdown) Total() float64 {
	return b.Mul + b.Add + b.Act + b.OtoE + b.Comm + b.Laser
}

// Plus returns the element-wise sum.
func (b Breakdown) Plus(o Breakdown) Breakdown {
	return Breakdown{
		Mul:   b.Mul + o.Mul,
		Add:   b.Add + o.Add,
		Act:   b.Act + o.Act,
		OtoE:  b.OtoE + o.OtoE,
		Comm:  b.Comm + o.Comm,
		Laser: b.Laser + o.Laser,
	}
}

// Scale returns the breakdown multiplied by k.
func (b Breakdown) Scale(k float64) Breakdown {
	return Breakdown{
		Mul: k * b.Mul, Add: k * b.Add, Act: k * b.Act,
		OtoE: k * b.OtoE, Comm: k * b.Comm, Laser: k * b.Laser,
	}
}

// PerOp returns the energy breakdown of ONE native-precision MAC
// operation under the configuration (the Act field is per activation
// evaluation and is scaled by the workload's N_act, not N_mul — see
// CostNetwork).
func PerOp(cfg Config) Breakdown {
	cal := cfg.Cal
	p0 := float64(NativePrecision)
	b := float64(cfg.Bits)
	gateE := cfg.Tech.GateEnergy
	w := cfg.AccumulatorWidth()

	// Electrical accumulation: P0 bit-serial accumulate cycles on each
	// operand's own accumulator (parallel native-width units; width
	// grows only logarithmically with the burst packing).
	eAccWide := p0 * float64(elec.CLAGateCount(w)) * gateE
	// Electrical accumulation at native width (what OO's residual
	// electrical merging costs, independent of burst width).
	wNative := 2*NativePrecision + 4
	eAccNative := p0 * float64(elec.CLAGateCount(wNative)) * gateE

	var out Breakdown
	switch cfg.Design {
	case EE:
		wire := (1 + b*cal.EEWireFactorPerBit) * (1 + float64(cfg.Lanes)*cal.EEWireFactorPerLane)
		out.Mul = p0 * cal.EEMulBitCycle * wire
		out.Add = eAccWide
		// Two operand words in, one result word out, all electrical.
		out.Comm = 4 * p0 * cal.ElinkPerBit
	case OE:
		out.Mul = opticalMulPerOp(cfg)
		out.Add = cal.OEAddOverhead * eAccWide
		// The full neuron word is re-detected every one of the P0
		// synapse-bit cycles.
		out.OtoE = p0 * p0 * cal.PDPerBit
		out.Comm = opticalCommPerOp(cfg)
		out.Laser = laserPerOp(cfg, cal.OELaunchPower)
	case OO:
		out.Mul = opticalMulPerOp(cfg)
		// The MZI chain (P0 stages, each live for ~2*P0 slots) replaces
		// the wide electrical accumulate; only native-width merging
		// remains electrical.
		out.Add = 2*p0*p0*cal.MZIPerBit + cal.OOResidualAddFraction*eAccNative
		// One pass of 2*P0-1 amplitude slots through the comparator
		// ladder (levels-1 comparators fire every slot).
		out.OtoE = (2*p0 - 1) * (1 + 0.5*p0) * cal.PDPerBit
		out.Comm = opticalCommPerOp(cfg)
		out.Laser = laserPerOp(cfg, cal.OOLaunchPower)
	}
	out.Act = cal.TanhPerEval
	return out
}

// opticalMulPerOp prices the MRR AND stage: the active double filter
// actuates both rings for the P0 bits of the neuron word, plus the
// ensemble's static ring tuning amortized over the concurrent
// operations.
func opticalMulPerOp(cfg Config) float64 {
	cal := cfg.Cal
	p0 := float64(NativePrecision)
	active := 2 * p0 * cal.MRRSwitchPerBit
	rings := float64(DeviceCensus(cfg).TotalRings())
	tuning := rings * cal.MRRTuningPower * RoundTime(cfg) / cfg.ConcurrentOps()
	return active + tuning
}

// opticalCommPerOp prices data movement for the optical designs: the
// neuron word is modulated once per burst (photonic in); the result
// word leaves electrically.
func opticalCommPerOp(cfg Config) float64 {
	cal := cfg.Cal
	p0 := float64(NativePrecision)
	return p0*cal.ModulatorPerBit + 2*p0*cal.ElinkPerBit
}

// laserPerOp prices the wall-plug laser energy: the wavelength is lit
// for P0^2 slot-equivalents per operation (P0 cycles of a P0-bit word
// for OE; a P0-way filter-bank split of one P0-slot pass for OO — the
// same slot count, at the design's launch power).
func laserPerOp(cfg Config, launch float64) float64 {
	cal := cfg.Cal
	p0 := float64(NativePrecision)
	return launch * p0 * p0 * cal.SlotTime() / cal.LaserWallPlug
}
