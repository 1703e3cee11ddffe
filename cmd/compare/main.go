// Command compare regenerates the paper's convergence comparisons:
//
//	compare -fig 6              # proposed vs conventional SIS, RDF-only, Vdd=0.7 (Fig. 6)
//	compare -fig 7 -alpha 0.3   # proposed vs naive MC with RTN, Vdd=0.5 (Fig. 7a)
//	compare -fig 7 -both        # both panels, sharing initialization (Fig. 7a+b)
//
// Output is CSV series (simulations, estimate, CI, relative error) plus the
// headline speedup ratios.
package main

import (
	"flag"
	"fmt"
	"os"

	"ecripse/internal/experiments"
)

func main() {
	fig := flag.Int("fig", 6, "figure to regenerate: 6 or 7")
	alpha := flag.Float64("alpha", 0.3, "duty ratio for -fig 7")
	both := flag.Bool("both", false, "-fig 7: run both panels (alpha 0.3 then 0.5) with shared initialization")
	seed := flag.Int64("seed", 1, "random seed")
	scaleFlag := flag.String("scale", "default", "workload scale: smoke, default or full")
	diag := flag.Bool("diag", false, "append the proposed run's stage-1 convergence diagnostics")
	flag.Parse()

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}

	switch *fig {
	case 6:
		r, err := experiments.Fig6(*seed, scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(1)
		}
		r.Write(os.Stdout)
		if *diag {
			experiments.WriteDiag(os.Stdout, r.Proposed.Name, r.ProposedDiag)
		}
	case 7:
		if *both {
			r1, eng, err := experiments.Fig7(*seed, scale, 0.3, nil)
			if err != nil {
				fmt.Fprintln(os.Stderr, "compare:", err)
				os.Exit(1)
			}
			r1.Write(os.Stdout)
			r2, _, err := experiments.Fig7(*seed+1, scale, 0.5, eng)
			if err != nil {
				fmt.Fprintln(os.Stderr, "compare:", err)
				os.Exit(1)
			}
			r2.Write(os.Stdout)
			fmt.Printf("# shared initialization: panel (b) used %d sims vs panel (a) %d\n",
				r2.Proposed.Estimate.Sims, r1.Proposed.Estimate.Sims)
			if *diag {
				experiments.WriteDiag(os.Stdout, r1.Proposed.Name, r1.ProposedDiag)
				experiments.WriteDiag(os.Stdout, r2.Proposed.Name, r2.ProposedDiag)
			}
		} else {
			r, _, err := experiments.Fig7(*seed, scale, *alpha, nil)
			if err != nil {
				fmt.Fprintln(os.Stderr, "compare:", err)
				os.Exit(1)
			}
			r.Write(os.Stdout)
			if *diag {
				experiments.WriteDiag(os.Stdout, r.Proposed.Name, r.ProposedDiag)
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "compare: -fig must be 6 or 7")
		os.Exit(2)
	}
}
