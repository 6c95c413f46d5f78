// LeNet-style inference through the simulated all-optical datapath.
//
// A small quantized convolutional network (conv -> requant -> pool ->
// conv -> requant -> flatten -> FC, the LeNet shape scaled to a 12x12
// synthetic digit) is described once with the qnn package and executed
// twice: once on the plain-integer reference, and once with every MAC
// routed through the OO datapath — optical AND in MRR filters,
// cascaded-MZI accumulation, comparator-ladder readback. The outputs
// must agree exactly, and the optical run reports its metered energy.
//
//	go run ./examples/lenet_inference
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"pixel/internal/omac"
	"pixel/internal/optsim"
	"pixel/internal/qnn"
	"pixel/internal/tensor"
)

const (
	opBits = 4 // quantized operand precision
	maxVal = 1<<opBits - 1
)

// ooDotter routes qnn MACs through the all-optical unit.
type ooDotter struct {
	unit *omac.OOUnit
	led  *optsim.Ledger
}

func (o ooDotter) DotProduct(a, b []uint64) (uint64, error) {
	return o.unit.DotProduct(a, b, o.led)
}

func buildModel(rng *rand.Rand) *qnn.Model {
	k1 := tensor.NewKernel(4, 3, 1) // conv1: 12x12x1 -> 10x10x4
	for i := range k1.Data {
		k1.Data[i] = rng.Int63n(maxVal + 1)
	}
	k2 := tensor.NewKernel(6, 3, 4) // conv2: 5x5x4 -> 3x3x6
	for i := range k2.Data {
		k2.Data[i] = rng.Int63n(maxVal + 1)
	}
	fcW := make([]int64, 3*3*6*10) // fc: 54 -> 10 classes
	for i := range fcW {
		fcW[i] = rng.Int63n(maxVal + 1)
	}
	return &qnn.Model{
		Label:          "lenet-12",
		ActivationBits: opBits,
		Layers: []qnn.Layer{
			&qnn.Conv{Label: "conv1", Kernel: k1, Stride: 1},
			&qnn.Requant{Label: "rq1", Shift: 4, Max: maxVal},
			&qnn.MaxPool{Label: "pool1", Window: 2},
			&qnn.Conv{Label: "conv2", Kernel: k2, Stride: 1},
			&qnn.Requant{Label: "rq2", Shift: 6, Max: maxVal},
			&qnn.Flatten{Label: "flatten"},
			&qnn.FullyConnected{Label: "fc", Weights: fcW, Out: 10},
		},
	}
}

func main() {
	rng := rand.New(rand.NewSource(7))
	model := buildModel(rng)

	// A synthetic 12x12 "digit".
	input := tensor.New(12, 12, 1)
	for i := range input.Data {
		input.Data[i] = rng.Int63n(maxVal + 1)
	}

	// Reference pass: plain integers through the serial reference
	// chain.
	ref, err := model.RunContext(context.Background(), input, qnn.ReferenceDotter{}, qnn.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Optical pass: every MAC through the OO unit.
	unit, err := omac.NewOOUnit(omac.DefaultConfig(4, opBits), 64)
	if err != nil {
		log.Fatal(err)
	}
	led := optsim.NewLedger()
	opt, err := model.Run(input, ooDotter{unit, led})
	if err != nil {
		log.Fatal(err)
	}

	mismatches := 0
	for i := range ref.Data {
		if opt.Data[i] != ref.Data[i] {
			mismatches++
		}
	}
	fmt.Printf("optical logits:   %v\n", opt.Data)
	fmt.Printf("reference logits: %v\n", ref.Data)
	fmt.Printf("mismatches: %d/%d\n", mismatches, ref.Len())
	fmt.Printf("predicted class (optical) = %d, (reference) = %d\n",
		tensor.ArgMax(opt), tensor.ArgMax(ref))
	if mismatches != 0 {
		log.Fatal("optical inference diverged from the integer reference")
	}

	fmt.Println("\nall MACs executed on the simulated OO datapath; metered:")
	energy := led.Breakdown()
	cats := make([]string, 0, len(energy))
	for cat := range energy {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	for _, cat := range cats {
		fmt.Printf("  %-6s %.4g nJ\n", cat, energy[cat]*1e9)
	}
	fmt.Printf("  latency %.4g us\n", led.Latency()*1e6)
}
