package pixel_test

import (
	"context"
	"fmt"
	"log"

	"pixel"
)

// ExampleNewMAC computes the paper's Section II-B operands on the
// all-optical datapath.
func ExampleNewMAC() {
	mac, err := pixel.NewMAC(pixel.OO, 8, 4)
	if err != nil {
		log.Fatal(err)
	}
	p, err := mac.Multiply(6, 13)
	if err != nil {
		log.Fatal(err)
	}
	d, err := mac.DotProduct([]uint64{2, 0, 3, 8}, []uint64{6, 1, 2, 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(p, d)
	// Output: 78 42
}

// ExampleMAC_SignedDotProduct shows signed operands riding the
// unsigned optics via offset encoding.
func ExampleMAC_SignedDotProduct() {
	mac, err := pixel.NewMAC(pixel.OE, 6, 3)
	if err != nil {
		log.Fatal(err)
	}
	v, err := mac.SignedDotProduct([]int64{-3, 2, -15}, []int64{7, -8, 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(v)
	// Output: -52
}

// ExampleEvaluateContext prices a full VGG16 inference and reports
// which design wins the energy-delay product.
func ExampleEvaluateContext() {
	var best pixel.Result
	for _, d := range pixel.Designs() {
		r, err := pixel.EvaluateContext(context.Background(), "VGG16", pixel.Point{Design: d, Lanes: 4, Bits: 16})
		if err != nil {
			log.Fatal(err)
		}
		if best.EDP == 0 || r.EDP < best.EDP {
			best = r
		}
	}
	fmt.Println(best.Design)
	// Output: OO
}

// ExampleSweepNetworks finds the best design point of a small grid.
func ExampleSweepNetworks() {
	points := pixel.Grid(pixel.Designs(), []int{4, 8}, []int{8, 16})
	byNet, err := pixel.SweepNetworks(context.Background(), []string{"LeNet"}, points, nil)
	if err != nil {
		log.Fatal(err)
	}
	best, err := pixel.BestEDP(byNet["LeNet"])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s lanes=%d bits=%d\n", best.Design, best.Lanes, best.Bits)
	// Output: OO lanes=8 bits=16
}

// ExampleDesigns lists the three MAC implementations.
func ExampleDesigns() {
	for _, d := range pixel.Designs() {
		fmt.Println(d)
	}
	// Output:
	// EE
	// OE
	// OO
}
