// Programmable photonics: build an optical datapath as an explicit
// netlist instead of fixed code — the field-programmable-photonic-array
// idea the paper's related work surveys (Perez et al., Harris et al.).
//
// The circuit below assembles a 2-tap optical FIR-like structure from
// the library's node catalog (sources, delays, MZI combiners, MRR
// filters), runs it, and probes an intermediate tap.
//
//	go run ./examples/netlist
package main

import (
	"fmt"
	"log"

	"pixel/internal/optsim"
	"pixel/internal/photonics"
	"pixel/internal/phy"
	"pixel/internal/trace"
)

func main() {
	const (
		launch = 1 * phy.Milliwatt
		slot   = 100 * phy.Picosecond
	)

	c := optsim.NewCircuit()

	// A pulse pattern enters the mesh.
	src := c.Add(&optsim.SourceNode{
		Label:  "pattern",
		Signal: optsim.NewOOK([]int{1, 0, 1, 1, 0}, launch, slot, 0),
	})

	// Tap the input for observability.
	tap := c.Add(&optsim.TapNode{Label: "input-probe"})
	must(c.Connect(src, 0, tap, 0))

	// An MRR filter splits the signal: the cross port feeds a delayed
	// branch, the bar port goes straight ahead.
	f := photonics.NewDoubleMRRFilter(0)
	f.On = true
	split := c.Add(&optsim.FilterNode{Label: "split", Filter: f})
	must(c.Connect(tap, 0, split, 0))

	// Delay the cross branch by one slot (the FIR tap).
	dly := c.Add(&optsim.DelayNode{Label: "one-slot", Slots: 1})
	must(c.Connect(split, 1, dly, 0))

	// Recombine: delayed + direct (coherent addition in the MZI).
	mzi := c.Add(&optsim.CombinerNode{Label: "recombine", Params: photonics.DefaultMZIParams()})
	must(c.Connect(dly, 0, mzi, 0))
	must(c.Connect(split, 0, mzi, 1))

	led := optsim.NewLedger()
	out, err := c.Run(led)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("input pattern:   1 0 1 1 0")
	fmt.Print("FIR output slots:")
	result := out[mzi][0]
	for i := 0; i < result.Slots(); i++ {
		fmt.Printf(" %.2g", result.Power(i)/launch)
	}
	fmt.Println(" (power, normalized)")

	sum := trace.Summarize(result, launch/10)
	fmt.Printf("summary: %d slots, %d lit, peak %.2gx launch\n",
		sum.Slots, sum.LitSlots, sum.PeakPower/launch)
	fmt.Printf("metered: mul %s, add %s, latency %s\n",
		phy.FormatEnergy(led.Energy(optsim.CatMul)),
		phy.FormatEnergy(led.Energy(optsim.CatAdd)),
		phy.FormatTime(led.Latency()))

	// Reprogram the same mesh: turn the filter off and the FIR tap
	// goes dark — the "programmable" in programmable photonics.
	f.On = false
	out, err = c.Run(optsim.NewLedger())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("\nfilter off ->   ")
	result = out[mzi][0]
	for i := 0; i < result.Slots(); i++ {
		fmt.Printf(" %.2g", result.Power(i)/launch)
	}
	fmt.Println(" (delayed branch dark, direct branch passes)")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
