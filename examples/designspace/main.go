// Design-space exploration: sweep lanes and bits/lane across all three
// designs and find the crossover the paper reports — the optical
// designs win energy when bits/lane exceeds the lane count, and OO
// holds the best EDP at high bits/lane.
//
//	go run ./examples/designspace
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"pixel"
	"pixel/internal/report"
)

func main() {
	const network = "AlexNet"
	ctx := context.Background()
	lanesAxis := []int{2, 4, 8, 16}
	bitsAxis := []int{4, 8, 16, 32}

	tab := report.New(
		fmt.Sprintf("Design space: %s inference, EDP normalized to EE per point", network),
		"Lanes", "Bits", "EE", "OE", "OO", "winner")

	type point struct{ lanes, bits int }
	var crossovers []point
	for _, lanes := range lanesAxis {
		for _, bits := range bitsAxis {
			var edp [3]float64
			for i, d := range pixel.Designs() {
				r, err := pixel.EvaluateContext(ctx, network, pixel.Point{Design: d, Lanes: lanes, Bits: bits})
				if err != nil {
					log.Fatal(err)
				}
				edp[i] = r.EDP
			}
			winner := "EE"
			best := edp[0]
			if edp[1] < best {
				winner, best = "OE", edp[1]
			}
			if edp[2] < best {
				winner = "OO"
			}
			if winner != "EE" && bits > lanes {
				crossovers = append(crossovers, point{lanes, bits})
			}
			tab.AddRow(fmt.Sprint(lanes), fmt.Sprint(bits),
				"1",
				report.F(edp[1]/edp[0], 3),
				report.F(edp[2]/edp[0], 3),
				winner)
		}
	}
	tab.AddNote("paper: optical designs outperform EE when bits/lane > lanes")
	if err := tab.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\npoints with bits/lane > lanes won by an optical design: %d\n", len(crossovers))

	// Area cost of the win (the paper's stated trade-off).
	for _, d := range pixel.Designs() {
		a, err := pixel.AreaContext(ctx, pixel.Point{Design: d, Lanes: 4, Bits: 4})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("MAC-unit area %s (4 lanes, 4 bits/lane): %.4g mm^2\n", d, a*1e6)
	}
}
