// Quickstart: compute a multiply-accumulate on the all-optical PIXEL
// datapath and read back the metered energy and latency.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"

	"pixel"
)

func main() {
	// An 8-bit all-optical MAC able to accumulate 4-term dot products:
	// MRR filters do the AND, a cascaded-MZI chain does the
	// shift-accumulate, a comparator ladder digitizes the amplitudes.
	mac, err := pixel.NewMAC(pixel.OO, 8, 4)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's Section II-B example operands.
	p, err := mac.Multiply(6, 13)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optical 6 x 13 = %d\n", p)

	dot, err := mac.DotProduct([]uint64{2, 0, 3, 8}, []uint64{6, 1, 2, 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optical <(2,0,3,8),(6,1,2,3)> = %d (paper's cycle-1 partial sum: 42)\n", dot)

	fmt.Println("\nmetered by the simulation:")
	energy := mac.EnergyJ()
	cats := make([]string, 0, len(energy))
	for cat := range energy {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	for _, cat := range cats {
		fmt.Printf("  %-6s %.3g pJ\n", cat, energy[cat]*1e12)
	}
	fmt.Printf("  latency %.3g ns\n", mac.LatencyS()*1e9)

	// The same computation on the electrical baseline gives the same
	// answer — the designs are bit-exact equivalents.
	ee, err := pixel.NewMAC(pixel.EE, 8, 4)
	if err != nil {
		log.Fatal(err)
	}
	check, err := ee.DotProduct([]uint64{2, 0, 3, 8}, []uint64{6, 1, 2, 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nelectrical Stripes baseline agrees: %d\n", check)
}
