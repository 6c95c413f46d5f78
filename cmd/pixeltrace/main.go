// Command pixeltrace dumps the optical waveforms of an all-optical
// multiply, stage by stage: the gated AND outputs per synapse bit, the
// amplitude-coded product train after the cascaded-MZI chain, and the
// recovered digits. Output is CSV on stdout plus a summary on stderr.
//
// Usage:
//
//	pixeltrace -a 6 -b 13 -bits 4
//	pixeltrace -a 200 -b 100 -bits 8 > waveform.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"pixel/internal/optsim"
	"pixel/internal/photonics"
	"pixel/internal/phy"
	"pixel/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pixeltrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pixeltrace", flag.ContinueOnError)
	a := fs.Uint64("a", 6, "neuron operand")
	b := fs.Uint64("b", 13, "synapse operand")
	bits := fs.Int("bits", 4, "operand precision (2..12)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bits < 2 || *bits > 12 {
		return fmt.Errorf("bits %d out of range [2,12]", *bits)
	}
	limit := uint64(1)<<uint(*bits) - 1
	if *a > limit || *b > limit {
		return fmt.Errorf("operands must fit %d bits (max %d)", *bits, limit)
	}

	const (
		launch = 1 * phy.Milliwatt
		slot   = 100 * phy.Picosecond // 10 GHz
	)

	// Build the per-synapse-bit AND outputs, most-significant first.
	led := optsim.NewLedger()
	inputs := make([]*optsim.Signal, *bits)
	for k := 0; k < *bits; k++ {
		train := make([]int, *bits)
		sbit := (*b >> uint(*bits-1-k)) & 1
		for t := 0; t < *bits; t++ {
			if sbit == 1 && (*a>>uint(t))&1 == 1 {
				train[t] = 1
			}
		}
		inputs[k] = optsim.NewOOK(train, launch, slot, 0)
		fmt.Printf("# stage %d (synapse bit %d = %d): AND output\n", k, *bits-1-k, sbit)
		if err := trace.WriteSignalCSV(os.Stdout, inputs[k]); err != nil {
			return err
		}
	}

	out, err := optsim.MZIAccumulate(inputs, optsim.MZIAccumulateOptions{
		Params:  photonics.DefaultMZIParams(),
		BitRate: 1 / slot,
	}, led)
	if err != nil {
		return err
	}
	fmt.Println("# accumulated product train (amplitude-coded)")
	if err := trace.WriteSignalCSV(os.Stdout, out); err != nil {
		return err
	}

	conv, err := photonics.NewAmplitudeConverter(launch, *bits)
	if err != nil {
		return err
	}
	conv.Coherent = true
	digits, err := optsim.DetectAmplitude(out, conv, led)
	if err != nil {
		return err
	}
	value, err := optsim.WeightedValue(digits)
	if err != nil {
		return err
	}

	sum := trace.Summarize(out, launch/4)
	fmt.Fprintf(os.Stderr, "digits (LSB first): %v\n", digits)
	fmt.Fprintf(os.Stderr, "%d x %d = %d (host check: %d)\n", *a, *b, value, *a**b)
	fmt.Fprintf(os.Stderr, "train: %d slots, %d lit, peak %s, extinction %.1f dB\n",
		sum.Slots, sum.LitSlots, phy.FormatPower(sum.PeakPower), sum.ExtinctionDB)
	fmt.Fprintf(os.Stderr, "metered: add %s, o/e %s, latency %s\n",
		phy.FormatEnergy(led.Energy(optsim.CatAdd)),
		phy.FormatEnergy(led.Energy(optsim.CatOE)),
		phy.FormatTime(led.Latency()))
	if uint64(value) != *a**b {
		return fmt.Errorf("optical product mismatch")
	}
	return nil
}
