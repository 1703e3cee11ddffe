// Margins explores the classic 6T sizing trade-off with the extension
// analyses built on the paper's substrate: read, hold and write margins —
// and their failure probabilities — as the access transistor strength
// varies, plus the N-curve metrics of the nominal cell.
//
//	go run ./examples/margins
package main

import (
	"fmt"
	"log"

	"ecripse"
)

func main() {
	cell := ecripse.NewCell(ecripse.VddLow)
	var nominal ecripse.Shifts

	fmt.Printf("Static margins at Vdd = %.2f V (nominal cell):\n", cell.Vdd)
	fmt.Printf("  read SNM     : %5.1f mV\n", 1000*cell.ReadSNM(nominal, nil))
	fmt.Printf("  hold SNM     : %5.1f mV\n", 1000*cell.HoldSNM(nominal, nil))
	fmt.Printf("  write margin : %5.1f mV\n", 1000*cell.WriteMargin(nominal, nil))
	nc := cell.NCurveStability(nominal, nil)
	fmt.Printf("  N-curve      : SVNM %5.1f mV, SINM %.2f uA\n\n", 1000*nc.SVNM, 1e6*nc.SINM)

	fmt.Println("The read/write trade-off: shifting both access-device thresholds")
	fmt.Println("(negative = stronger access) moves the two failure modes in")
	fmt.Println("opposite directions:")
	fmt.Println()
	fmt.Println("  dVth(A)   read SNM   write margin    P(read fail)  P(write fail)")
	for _, dv := range []float64{-0.06, -0.03, 0, 0.03, 0.06} {
		var sh ecripse.Shifts
		sh[ecripse.A1], sh[ecripse.A2] = dv, dv
		read := cell.ReadSNM(sh, nil)
		write := cell.WriteMargin(sh, nil)

		readP := probability(cell, dv, ecripse.ReadFailure)
		writeP := probability(cell, dv, ecripse.WriteFailure)
		fmt.Printf("  %+5.0f mV   %5.1f mV   %8.1f mV    %12.2e  %13.2e\n",
			1000*dv, 1000*read, 1000*write, readP, writeP)
	}
	fmt.Println()
	fmt.Println("A stronger access device helps writes and hurts reads; the yield")
	fmt.Println("optimum balances the two failure probabilities.")
}

// probability estimates the failure probability of the cell with a
// deterministic access-device offset applied on top of the random RDF.
func probability(base *ecripse.Cell, accessShift float64, mode ecripse.FailureMode) float64 {
	// Shift the prototypes: a design offset, not a random variable.
	cell := ecripse.NewCell(base.Vdd)
	cell.Devs[ecripse.A1].DVth = accessShift
	cell.Devs[ecripse.A2].DVth = accessShift
	est := ecripse.New(cell, ecripse.Options{NIS: 20000, Mode: mode})
	res, err := est.FailureProbability(1)
	if err != nil {
		log.Fatal(err)
	}
	return res.Estimate.P
}
