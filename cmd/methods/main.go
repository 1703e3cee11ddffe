// Command methods runs every rare-event estimator in the repository on the
// same problem (RDF-only read failure of the Table I cell) and prints a
// comparison table: naive Monte Carlo, quasi-MC, sequential importance
// sampling (the paper's conventional baseline [8]), statistical blockade
// [12], subset simulation, and ECRIPSE.
//
//	methods -vdd 0.5
//	methods -vdd 0.7 -scale full
package main

import (
	"flag"
	"fmt"
	"os"

	"ecripse/internal/experiments"
)

func main() {
	vdd := flag.Float64("vdd", 0.5, "supply voltage [V]")
	seed := flag.Int64("seed", 1, "random seed")
	scaleFlag := flag.String("scale", "default", "workload scale: smoke, default or full")
	flag.Parse()

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "methods:", err)
		os.Exit(2)
	}
	r, err := experiments.Methods(*seed, scale, *vdd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "methods:", err)
		os.Exit(1)
	}
	r.Write(os.Stdout)
}
