// Dutysweep shows how the storage duty ratio modulates the RTN-aware
// failure probability — the shape of the paper's Fig. 8 — as an ASCII bar
// chart, using shared initialization across all bias points.
//
//	go run ./examples/dutysweep
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	"ecripse"
)

func main() {
	cell := ecripse.NewCell(ecripse.VddLow) // lowered supply keeps this example quick
	cfg := ecripse.TableIRTN(cell)
	est := ecripse.New(cell, ecripse.Options{NIS: 40000, M: 10})

	alphas := []float64{0, 0.25, 0.5, 0.75, 1.0}
	pts, err := est.DutySweep(1, cfg, alphas)
	if err != nil {
		log.Fatal(err)
	}
	rdf, err := est.FailureProbability(2)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("RTN-aware failure probability vs duty ratio (Vdd = %.2f V)\n\n", cell.Vdd)
	maxP := rdf.Estimate.P
	for _, p := range pts {
		maxP = math.Max(maxP, p.Result.Estimate.P)
	}
	bar := func(p float64) string {
		n := int(40 * p / maxP)
		return strings.Repeat("#", n)
	}
	for _, p := range pts {
		fmt.Printf("  alpha=%.2f  %.3e  %s\n", p.Alpha, p.Result.Estimate.P, bar(p.Result.Estimate.P))
	}
	fmt.Printf("  RDF-only   %.3e  %s\n\n", rdf.Estimate.P, bar(rdf.Estimate.P))
	fmt.Println("The minimum sits at alpha = 0.5 (cell stores 0 and 1 equally often)")
	fmt.Println("and the curve is bilaterally symmetric — the cell itself is symmetric.")
	fmt.Printf("Ignoring RTN is optimistic by %.1fx at the worst duty ratio.\n",
		pts[0].Result.Estimate.P/rdf.Estimate.P)
	fmt.Printf("\nTotal transistor-level simulations for all %d estimates: %d\n",
		len(alphas)+1, est.Simulations())
}
