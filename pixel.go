// Package pixel is the public API of the PIXEL photonic neural-network
// accelerator library — a full reproduction of "PIXEL: Photonic Neural
// Network Accelerator" (Shiflett, Wright, Karanth, Louri; HPCA 2020).
//
// The library has two halves, both reachable from this package:
//
//   - A functional simulator: the three MAC designs — EE (electrical
//     Stripes bit-serial), OE (optical multiply, electrical accumulate)
//     and OO (optical multiply and accumulate through cascaded MZIs) —
//     computing real products and dot products, bit-exactly, over a
//     discrete-time optical circuit simulation. See NewMAC.
//
//   - An architectural cost model: energy, latency, area and EDP of a
//     full accelerator running CNN inference (VGG16, AlexNet, ZFNet,
//     ResNet-34, LeNet, GoogLeNet), which regenerates every table and
//     figure of the paper's evaluation. See EvaluateContext and RunExperiment.
package pixel

import (
	"fmt"
	"io"

	"pixel/internal/arch"
	"pixel/internal/cnn"
	"pixel/internal/eval"
	"pixel/internal/omac"
	"pixel/internal/optsim"
)

// Design selects a MAC implementation.
type Design int

const (
	// EE is the all-electrical Stripes baseline.
	EE Design = iota
	// OE multiplies optically and accumulates electrically.
	OE
	// OO multiplies and accumulates optically.
	OO
)

// String implements fmt.Stringer.
func (d Design) String() string {
	switch d {
	case EE:
		return "EE"
	case OE:
		return "OE"
	case OO:
		return "OO"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// MarshalText implements encoding.TextMarshaler: a design encodes as
// its String name, so an out-of-range value still marshals.
func (d Design) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler through
// ParseDesign; unknown names surface ErrUnknownDesign.
func (d *Design) UnmarshalText(text []byte) error {
	v, err := ParseDesign(string(text))
	if err != nil {
		return err
	}
	*d = v
	return nil
}

// arch maps the public enum onto the cost model's, surfacing
// ErrUnknownDesign for values outside it instead of passing garbage
// downstream.
func (d Design) arch() (arch.Design, error) {
	switch d {
	case EE:
		return arch.EE, nil
	case OE:
		return arch.OE, nil
	case OO:
		return arch.OO, nil
	default:
		return 0, fmt.Errorf("%w: %d", ErrUnknownDesign, int(d))
	}
}

// Designs lists all three designs in presentation order.
func Designs() []Design { return []Design{EE, OE, OO} }

// ParseDesign maps a design name ("EE", "OE", "OO") back to its enum
// value — the inverse of Design.String. Unrecognized names surface
// ErrUnknownDesign.
func ParseDesign(s string) (Design, error) {
	switch s {
	case "EE":
		return EE, nil
	case "OE":
		return OE, nil
	case "OO":
		return OO, nil
	default:
		return 0, fmt.Errorf("%w: %q", ErrUnknownDesign, s)
	}
}

// Networks returns the names of the six CNNs of the paper's evaluation.
func Networks() []string {
	nets := cnn.All()
	out := make([]string, len(nets))
	for i, n := range nets {
		out[i] = n.Name
	}
	return out
}

// Result is the cost of one full CNN inference under a design point.
// Its JSON form is pixeld's /v1 result payload and the pixelsweep -json
// row.
type Result struct {
	Network string `json:"network"`
	Design  Design `json:"design"`
	Lanes   int    `json:"lanes"`
	Bits    int    `json:"bits"`

	// EnergyJ is the total inference energy [J].
	EnergyJ float64 `json:"energy_j"`
	// LatencyS is the inference latency [s].
	LatencyS float64 `json:"latency_s"`
	// EDP is the energy-delay product [J*s].
	EDP float64 `json:"edp_js"`
	// Breakdown itemizes EnergyJ by component.
	Breakdown Breakdown `json:"energy_breakdown_j"`
	// PerLayer lists each layer's share in network order. Only
	// EvaluateContext fills it: sweep rows — SweepNetworks and SweepJob
	// results, their Cell callbacks, /v1/sweep and pixelsweep -json —
	// carry none, since a sweep would otherwise multiply its payload by
	// the layer count for data most clients aggregate anyway.
	PerLayer []LayerResult `json:"per_layer,omitempty"`
}

// Breakdown itemizes a result's energy [J] by component, the categories
// of the paper's energy figures. Its fields are declared in JSON key
// order, so the object lists its keys sorted.
type Breakdown struct {
	Act   float64 `json:"act"`   // activation function
	Add   float64 `json:"add"`   // accumulation
	Comm  float64 `json:"comm"`  // data movement in and out
	Laser float64 `json:"laser"` // laser wall-plug energy
	Mul   float64 `json:"mul"`   // multiplication
	OtoE  float64 `json:"o/e"`   // optical-to-electrical conversion
}

// LayerResult is one layer's share of the inference cost.
type LayerResult struct {
	Name     string  `json:"name"`
	EnergyJ  float64 `json:"energy_j"`
	LatencyS float64 `json:"latency_s"`
}

// Experiments returns the ids of the paper artifacts this library
// regenerates: "table1", "fig4" .. "fig10", "table2".
func Experiments() []string {
	exps := eval.Experiments()
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.ID
	}
	return out
}

// RunExperiment regenerates one paper artifact by id and writes it to w
// as an aligned ASCII table, or CSV when csv is true.
func RunExperiment(id string, w io.Writer, csv bool) error {
	e, err := eval.ByID(id)
	if err != nil {
		return err
	}
	tab, err := e.Run()
	if err != nil {
		return fmt.Errorf("pixel: experiment %s: %w", id, err)
	}
	if csv {
		return tab.RenderCSV(w)
	}
	return tab.Render(w)
}

// Headlines reports the paper's summary claims next to this library's
// measured values.
type Headlines struct {
	// Improvements are fractions in [0,1]: 0.484 means 48.4% better.
	OEEDPImprovement float64 // paper: 0.484
	OOEDPImprovement float64 // paper: 0.739
	MulSaving        float64 // paper: 0.949
	AddSaving        float64 // paper: 0.538
	ZFNetConv2VsEE   float64 // paper: 0.319
	ZFNetConv2VsOE   float64 // paper: 0.186
}

// MeasureHeadlines computes the headline numbers from the frozen model.
func MeasureHeadlines() Headlines {
	h := eval.MeasureHeadlines()
	return Headlines{
		OEEDPImprovement: h.OEEDPImprovement,
		OOEDPImprovement: h.OOEDPImprovement,
		MulSaving:        h.MulSaving,
		AddSaving:        h.AddSaving,
		ZFNetConv2VsEE:   h.ZFNetConv2VsEE,
		ZFNetConv2VsOE:   h.ZFNetConv2VsOE,
	}
}

// MAC is a functional multiply-accumulate unit of one of the three
// designs: it computes real values through the simulated datapath
// (optical pulse trains, MRR filters, MZI chains for the optical
// designs) and meters the energy and latency it spends.
type MAC struct {
	design Design
	terms  int
	unit   interface {
		Multiply(a, b uint64, led *optsim.Ledger) (uint64, error)
		DotProduct(a, b []uint64, led *optsim.Ledger) (uint64, error)
		SignedDotProduct(a, b []int64, led *optsim.Ledger) (int64, error)
	}
	led *optsim.Ledger
}

// NewMAC builds a functional MAC for unsigned operands of the given
// precision (1..16 bits) able to accumulate dot products of up to
// `terms` element pairs.
func NewMAC(d Design, bits, terms int) (*MAC, error) {
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("%w: bits %d out of range [1,16]", ErrBadPrecision, bits)
	}
	if terms < 1 {
		return nil, fmt.Errorf("%w: terms %d must be >= 1", ErrBadSpec, terms)
	}
	m := &MAC{design: d, terms: terms, led: optsim.NewLedger()}
	cfg := omac.DefaultConfig(4, bits)
	var err error
	switch d {
	case EE:
		m.unit, err = newEEUnit(bits, terms)
	case OE:
		m.unit, err = omac.NewOEUnit(cfg, terms)
	case OO:
		m.unit, err = omac.NewOOUnit(cfg, terms)
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownDesign, int(d))
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Design returns the MAC's design.
func (m *MAC) Design() Design { return m.design }

// Multiply computes a*b through the design's datapath.
func (m *MAC) Multiply(a, b uint64) (uint64, error) {
	return m.unit.Multiply(a, b, m.led)
}

// DotProduct computes the inner product of two equal-length vectors.
// A vector longer than the MAC's terms would overflow the accumulator
// and is rejected with ErrBadSpec.
func (m *MAC) DotProduct(a, b []uint64) (uint64, error) {
	if len(a) > m.terms {
		return 0, fmt.Errorf("%w: %d-term dot product on a MAC built for %d terms", ErrBadSpec, len(a), m.terms)
	}
	return m.unit.DotProduct(a, b, m.led)
}

// SignedDotProduct computes a signed inner product of at most the MAC's
// terms (ErrBadSpec otherwise). Operands must fit the MAC's precision
// as two's-complement values; on the optical designs they travel
// offset-binary encoded (light carries no sign) with an exact
// electrical correction.
func (m *MAC) SignedDotProduct(a, b []int64) (int64, error) {
	if len(a) > m.terms {
		return 0, fmt.Errorf("%w: %d-term dot product on a MAC built for %d terms", ErrBadSpec, len(a), m.terms)
	}
	return m.unit.SignedDotProduct(a, b, m.led)
}

// EnergyJ returns the energy metered so far [J], by component. The EE
// design's functional unit does not meter energy (use EvaluateContext
// for EE costs); it returns an empty map.
func (m *MAC) EnergyJ() map[string]float64 { return m.led.Breakdown() }

// LatencyS returns the datapath latency metered so far [s].
func (m *MAC) LatencyS() float64 { return m.led.Latency() }
