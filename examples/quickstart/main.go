// Quickstart: estimate the SRAM read-failure probability with and without
// RTN using the public API, and show the simulation-count accounting that
// makes ECRIPSE fast.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ecripse"
)

func main() {
	// The paper's Fig. 7 setting: lowered supply so even naive Monte Carlo
	// could converge — and this example stays fast.
	cell := ecripse.NewCell(ecripse.VddLow)
	fmt.Printf("6T SRAM cell at Vdd = %.2f V\n", ecripse.VddLow)
	fmt.Printf("nominal read noise margin: %.1f mV\n\n", 1000*cell.ReadSNM(ecripse.Shifts{}, nil))

	est := ecripse.New(cell, ecripse.Options{NIS: 100000, M: 10})

	rdf, err := est.FailureProbability(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("RDF-only (process variation only):")
	fmt.Printf("  %v\n\n", rdf.Estimate)

	cfg := ecripse.TableIRTN(cell)
	withRTN, err := est.FailureProbabilityRTN(1, cfg, 0.3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("RTN-aware (duty ratio 0.3):")
	fmt.Printf("  %v\n\n", withRTN.Estimate)

	fmt.Printf("RTN degrades the failure probability by %.1fx.\n",
		withRTN.Estimate.P/rdf.Estimate.P)
	fmt.Printf("Total transistor-level simulations for both estimates: %d\n", est.Simulations())
	fmt.Printf("(naive Monte Carlo would need ~%.0g trials for the RDF-only number alone)\n",
		100/rdf.Estimate.P)
}
