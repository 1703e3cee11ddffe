package ecripse_test

import (
	"fmt"
	"log"

	"ecripse"
)

// The basic flow: build the Table I cell, estimate the RDF-only failure
// probability, then add RTN at a duty ratio.
func Example() {
	cell := ecripse.NewCell(ecripse.VddLow)
	est := ecripse.New(cell, ecripse.Options{NIS: 60000})

	rdf, err := est.FailureProbability(1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := ecripse.TableIRTN(cell)
	withRTN, err := est.FailureProbabilityRTN(1, cfg, 0.3)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("RTN worsens Pfail: %v\n", withRTN.Estimate.P > rdf.Estimate.P)
	fmt.Printf("simulations stayed below 10%% of samples: %v\n",
		est.Simulations() < int64(2*60000/10))
	// Output:
	// RTN worsens Pfail: true
	// simulations stayed below 10% of samples: true
}

// Static cell analyses need no estimator: margins come straight from the
// butterfly machinery.
func ExampleCell_margins() {
	cell := ecripse.NewCell(ecripse.VddNominal)
	var nominal ecripse.Shifts

	read := cell.ReadSNM(nominal, nil)
	hold := cell.HoldSNM(nominal, nil)
	write := cell.WriteMargin(nominal, nil)
	fmt.Printf("hold > read: %v\n", hold > read)
	fmt.Printf("all margins positive: %v\n", read > 0 && hold > 0 && write > 0)
	// Output:
	// hold > read: true
	// all margins positive: true
}

// A deterministic mismatch pushes the cell over the read-failure boundary;
// the signed noise margin reports how far.
func ExampleCell_defective() {
	cell := ecripse.NewCell(ecripse.VddNominal)
	defective := ecripse.Shifts{}
	defective[ecripse.D1] = 0.35  // very weak driver
	defective[ecripse.A1] = -0.20 // very strong access

	res := cell.NoiseMargin(defective, nil)
	fmt.Printf("fails: %v\n", res.Fails())
	fmt.Printf("one eye collapsed: %v\n", res.Lobe1 < 0 && res.Lobe2 > 0)
	// Output:
	// fails: true
	// one eye collapsed: true
}

// The duty-ratio dependence of the paper's Fig. 8: the failure probability
// is worst when the cell always stores the same value.
func ExampleEstimator_DutySweep() {
	cell := ecripse.NewCell(ecripse.VddLow)
	est := ecripse.New(cell, ecripse.Options{NIS: 20000, M: 5})
	cfg := ecripse.TableIRTN(cell)

	pts, err := est.DutySweep(3, cfg, []float64{0, 0.5, 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("minimum at alpha=0.5: %v\n",
		pts[1].Result.Estimate.P < pts[0].Result.Estimate.P &&
			pts[1].Result.Estimate.P < pts[2].Result.Estimate.P)
	// Output:
	// minimum at alpha=0.5: true
}
