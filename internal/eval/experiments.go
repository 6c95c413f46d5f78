package eval

import (
	"fmt"
	"math"

	"pixel/internal/arch"
	"pixel/internal/cnn"
	"pixel/internal/phy"
	"pixel/internal/report"
	"pixel/internal/sweep"
)

// Sweep axes used by the figures, matching the paper.
var (
	// Fig4Lanes / Fig4Bits are the single-MAC-unit sweep axes.
	Fig4Lanes = []int{2, 4, 8, 16}
	Fig4Bits  = []int{2, 4, 8, 16, 32}
	// FigBits is the 4/8/16/32 bits-per-wavelength axis of Figs 5/7/10.
	FigBits = []int{4, 8, 16, 32}
	// Fig8Bits is the latency sweep (the paper plots 1-32).
	Fig8Bits = []int{1, 2, 4, 8, 12, 16, 24, 32}
)

// Table1 regenerates the paper's Table I: VGG16 per-layer operation
// counts in millions.
func Table1() (*report.Table, error) {
	t := report.New("Table I: VGG16 computations [millions]",
		"Layer", "MVM", "Mul", "Add", "Act", "Input Shape")
	layers := cnn.VGG16().Layers
	for i := range layers {
		l := &layers[i]
		c := l.Counts(cnn.ModePaper)
		mvm := report.Sci(c.MVM / 1e6)
		if l.Type == cnn.FC {
			mvm = "1e-06" // the paper prints 10^-6 million = one MVM
		}
		t.AddRow(l.Name, mvm, report.Sci(c.Mul/1e6), report.Sci(c.Add/1e6),
			report.Sci(c.Act/1e6), l.InputShape())
	}
	t.AddNote("paper prints Conv1's input unpadded ([224,224,3]); all rows here show the padded extent Eq. 11 uses")
	return t, nil
}

// Fig4 regenerates Figure 4: energy per bit of a single MAC unit for
// every (lanes, bits/lane) point and design.
func Fig4() (*report.Table, error) {
	t := report.New("Figure 4: energy/bit of a single MAC unit [pJ/bit]",
		"Lanes", "Bits/lane", "EE", "OE", "OO")
	for _, lanes := range Fig4Lanes {
		for _, bits := range Fig4Bits {
			row := []string{fmt.Sprint(lanes), fmt.Sprint(bits)}
			for _, d := range arch.Designs() {
				e, err := EnergyPerBit(d, lanes, bits)
				if err != nil {
					return nil, err
				}
				row = append(row, report.F(e/phy.Picojoule, 2))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// EnergyPerBit returns the per-bit energy [J] of one MAC operation under
// the design point — Figure 4's quantity. Configurations come from the
// engine's memo, so the grid sweep builds each one once.
func EnergyPerBit(d arch.Design, lanes, bits int) (float64, error) {
	cfg, err := engine.Config(sweep.Point{Design: d, Lanes: lanes, Bits: bits})
	if err != nil {
		return 0, err
	}
	return arch.PerOp(cfg).Total() / arch.NativePrecision, nil
}

// Fig5 regenerates Figure 5: per-component energy for AlexNet, LeNet
// and VGG16 at 4 lanes with 4/8/16 bits/lane.
func Fig5() (*report.Table, error) {
	t := report.New("Figure 5: energy per component [mJ] (4 lanes)",
		"CNN", "Des", "Bits", "Mul", "Add", "Act", "o/e", "Comm", "Laser")
	nets := []cnn.Network{cnn.AlexNet(), cnn.LeNet(), cnn.VGG16()}
	if err := prefetch(nets, gridPoints(arch.Designs(), 4, []int{4, 8, 16})); err != nil {
		return nil, err
	}
	for _, net := range nets {
		for _, bits := range []int{4, 8, 16} {
			for _, d := range arch.Designs() {
				c, err := costOf(net, d, 4, bits)
				if err != nil {
					return nil, err
				}
				b := c.Energy
				mj := func(v float64) string { return report.Sci(v / phy.Millijoule) }
				t.AddRow(net.Name, d.String(), fmt.Sprint(bits),
					mj(b.Mul), mj(b.Add), mj(b.Act), mj(b.OtoE), mj(b.Comm), mj(b.Laser))
			}
		}
	}
	return t, nil
}

// Fig6 regenerates Figure 6: MAC-unit area vs lanes at 4 bits/lane.
func Fig6() (*report.Table, error) {
	t := report.New("Figure 6: MAC-unit area at 4 bits/lane [mm^2]",
		"Lanes", "EE", "OE", "OO")
	for _, lanes := range []int{2, 4, 8, 16, 32} {
		row := []string{fmt.Sprint(lanes)}
		for _, d := range arch.Designs() {
			a := arch.Area(arch.MustConfig(d, lanes, 4)).Total()
			row = append(row, report.Sci(a/phy.SquareMillimeter))
		}
		t.AddRow(row...)
	}
	t.AddNote("ordering EE < OE << OO; the OO curve is MZI-dominated (2 mm arms)")
	return t, nil
}

// NormalizedEnergy returns E(design)/E(EE) for one network at the
// design point — Figure 7's quantity. Both evaluations go through the
// engine's memo, so the EE reference is priced once per (lanes, bits)
// however many designs are normalized against it.
func NormalizedEnergy(net cnn.Network, d arch.Design, lanes, bits int) (float64, error) {
	ref, err := costOf(net, arch.EE, lanes, bits)
	if err != nil {
		return 0, err
	}
	c, err := costOf(net, d, lanes, bits)
	if err != nil {
		return 0, err
	}
	return c.Energy.Total() / ref.Energy.Total(), nil
}

// Fig7 regenerates Figure 7: normalized inference energy for the six
// CNNs at 8 lanes across 4/8/16/32 bits/lane. The full grid is warmed
// through the worker pool before the rows are assembled.
func Fig7() (*report.Table, error) {
	t := report.New("Figure 7: normalized energy (8 lanes, EE = 1 per group)",
		"CNN", "Bits", "EE", "OE", "OO")
	if err := prefetch(cnn.All(), gridPoints(arch.Designs(), 8, FigBits)); err != nil {
		return nil, err
	}
	for _, net := range cnn.All() {
		for _, bits := range FigBits {
			row := []string{net.Name, fmt.Sprint(bits)}
			for _, d := range arch.Designs() {
				v, err := NormalizedEnergy(net, d, 8, bits)
				if err != nil {
					return nil, err
				}
				row = append(row, report.F(v, 3))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// GeomeanLatency returns the geometric-mean inference latency [s]
// across the six CNNs — Figure 8's quantity.
func GeomeanLatency(d arch.Design, lanes, bits int) (float64, error) {
	logSum := 0.0
	nets := cnn.All()
	for _, net := range nets {
		c, err := costOf(net, d, lanes, bits)
		if err != nil {
			return 0, err
		}
		logSum += math.Log(c.Latency)
	}
	return math.Exp(logSum / float64(len(nets))), nil
}

// Fig8 regenerates Figure 8: geomean latency across the six CNNs at 8
// lanes for bits/lane 1-32.
func Fig8() (*report.Table, error) {
	t := report.New("Figure 8: geomean latency across CNNs (8 lanes) [ms]",
		"Bits/lane", "EE", "OE", "OO")
	if err := prefetch(cnn.All(), gridPoints(arch.Designs(), 8, Fig8Bits)); err != nil {
		return nil, err
	}
	for _, bits := range Fig8Bits {
		row := []string{fmt.Sprint(bits)}
		for _, d := range arch.Designs() {
			v, err := GeomeanLatency(d, 8, bits)
			if err != nil {
				return nil, err
			}
			row = append(row, report.F(v/phy.Millisecond, 3))
		}
		t.AddRow(row...)
	}
	t.AddNote("EE falls monotonically; OE/OO are U-shaped (burst > 10 GHz x electrical cycle)")
	return t, nil
}

// Fig9 regenerates Figure 9: ZFNet per-layer latency at 8 lanes,
// 8 bits/lane.
func Fig9() (*report.Table, error) {
	t := report.New("Figure 9: ZFNet per-layer latency (8 lanes, 8 bits/lane) [ms]",
		"Layer", "EE", "OE", "OO")
	costs := map[arch.Design]arch.NetworkCost{}
	for _, d := range arch.Designs() {
		c, err := costOf(cnn.ZFNet(), d, 8, 8)
		if err != nil {
			return nil, err
		}
		costs[d] = c
	}
	for i, l := range cnn.ZFNet().Layers {
		t.AddRow(l.Name,
			report.F(costs[arch.EE].Layers[i].Latency/phy.Millisecond, 3),
			report.F(costs[arch.OE].Layers[i].Latency/phy.Millisecond, 3),
			report.F(costs[arch.OO].Layers[i].Latency/phy.Millisecond, 3))
	}
	conv2 := 1 - costs[arch.OO].Layers[1].Latency/costs[arch.EE].Layers[1].Latency
	t.AddNote("Conv2: OO is %.1f%% faster than EE (paper: 31.9%%)", 100*conv2)
	return t, nil
}

// NormalizedEDP returns EDP(design)/EDP(EE) for one network at the
// design point — Figure 10's quantity.
func NormalizedEDP(net cnn.Network, d arch.Design, lanes, bits int) (float64, error) {
	ref, err := costOf(net, arch.EE, lanes, bits)
	if err != nil {
		return 0, err
	}
	c, err := costOf(net, d, lanes, bits)
	if err != nil {
		return 0, err
	}
	return c.EDP() / ref.EDP(), nil
}

// Fig10 regenerates Figure 10: normalized EDP for the six CNNs at 4
// lanes across 4/8/16/32 bits/lane.
func Fig10() (*report.Table, error) {
	t := report.New("Figure 10: normalized EDP (4 lanes, EE = 1 per group)",
		"CNN", "Bits", "EE", "OE", "OO")
	if err := prefetch(cnn.All(), gridPoints(arch.Designs(), 4, FigBits)); err != nil {
		return nil, err
	}
	for _, net := range cnn.All() {
		for _, bits := range FigBits {
			row := []string{net.Name, fmt.Sprint(bits)}
			for _, d := range arch.Designs() {
				v, err := NormalizedEDP(net, d, 4, bits)
				if err != nil {
					return nil, err
				}
				row = append(row, report.F(v, 3))
			}
			t.AddRow(row...)
		}
	}
	h := MeasureHeadlines()
	t.AddNote("geomean at 16 bits/lane: OE %.1f%% better than EE (paper 48.4%%), OO %.1f%% (paper 73.9%%)",
		100*h.OEEDPImprovement, 100*h.OOEDPImprovement)
	return t, nil
}

// Table2 regenerates Table II: the component energy breakdown at 4
// lanes, 16 bits/lane for ResNet-34, GoogLeNet and ZFNet [mJ].
func Table2() (*report.Table, error) {
	t := report.New("Table II: energy breakdown [mJ] (4 lanes, 16 bits/lane)",
		"CNN", "Des", "Mul", "Add", "Act", "o/e", "Comm", "Laser")
	nets := []string{"ResNet-34", "GoogLeNet", "ZFNet"}
	for _, name := range nets {
		net, err := cnn.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, d := range arch.Designs() {
			c, err := costOf(net, d, 4, 16)
			if err != nil {
				return nil, err
			}
			b := c.Energy
			mj := func(v float64) string { return report.Sci(v / phy.Millijoule) }
			t.AddRow(net.Name, d.String(), mj(b.Mul), mj(b.Add), mj(b.Act), mj(b.OtoE), mj(b.Comm), mj(b.Laser))
		}
	}
	return t, nil
}
