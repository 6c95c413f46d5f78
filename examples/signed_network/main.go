// Signed weights on unsigned optics. Light carries no sign, so signed
// synapse weights ride the OO datapath offset-binary encoded, with an
// exact electrical correction (two narrow running sums). This example
// runs a small conv->ReLU->pool network with signed weights entirely on
// the simulated all-optical MAC and checks it against plain integers.
//
//	go run ./examples/signed_network
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"pixel"
	"pixel/internal/qnn"
	"pixel/internal/tensor"
)

func main() {
	rng := rand.New(rand.NewSource(11))

	// Signed 5-bit weights in [-7, 7]; unsigned 3-bit activations.
	k := tensor.NewKernel(3, 3, 1)
	for i := range k.Data {
		k.Data[i] = rng.Int63n(15) - 7
	}
	model := &qnn.Model{
		Label:          "signed-demo",
		ActivationBits: 3,
		Layers: []qnn.Layer{
			&qnn.SignedConv{Label: "conv", Kernel: k, Stride: 1},
			&qnn.Requant{Label: "relu", Shift: 2, Max: 7}, // clamps negatives: ReLU
			&qnn.MaxPool{Label: "pool", Window: 2},
		},
	}

	in := tensor.New(8, 8, 1)
	for i := range in.Data {
		in.Data[i] = rng.Int63n(8)
	}

	ref, err := model.Run(in, qnn.ReferenceDotter{})
	if err != nil {
		log.Fatal(err)
	}

	mac, err := pixel.NewMAC(pixel.OO, 5, 16)
	if err != nil {
		log.Fatal(err)
	}
	// The MAC has both DotProduct and SignedDotProduct, so it runs the
	// model as is.
	opt, err := model.Run(in, mac)
	if err != nil {
		log.Fatal(err)
	}

	mismatches := 0
	for i := range ref.Data {
		if opt.Data[i] != ref.Data[i] {
			mismatches++
		}
	}
	fmt.Printf("feature map (optical, signed weights): %v\n", opt.Data)
	fmt.Printf("feature map (integer reference):       %v\n", ref.Data)
	fmt.Printf("mismatches: %d/%d\n", mismatches, ref.Len())
	if mismatches != 0 {
		log.Fatal("signed optical inference diverged")
	}
	fmt.Println("\nsigned weights rode the unsigned optics offset-binary encoded;")
	fmt.Println("the electrical correction used two narrow accumulators, metered:")
	energy := mac.EnergyJ()
	cats := make([]string, 0, len(energy))
	for cat := range energy {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	for _, cat := range cats {
		fmt.Printf("  %-6s %.4g nJ\n", cat, energy[cat]*1e9)
	}
}
