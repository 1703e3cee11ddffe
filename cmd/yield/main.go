// Command yield sweeps the supply voltage and reports the cell failure
// probability together with array-level yield — the numbers the paper's
// introduction motivates ("tens of megabytes of on-chip cache" make even a
// 1e-4 per-cell failure probability catastrophic). Optionally includes RTN
// and a single-error-correcting code per word.
//
//	yield -vdds 0.5,0.6,0.7 -megabits 32
//	yield -vdds 0.5 -rtn -alpha 0.3 -ecc 1 -wordbits 72
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ecripse"
	"ecripse/internal/stats"
)

func main() {
	var (
		vddList  = flag.String("vdds", "0.5,0.6,0.7", "comma-separated supply voltages [V]")
		megabits = flag.Float64("megabits", 32, "array size in megabits")
		withRTN  = flag.Bool("rtn", false, "include RTN at the given duty ratio")
		alpha    = flag.Float64("alpha", 0.5, "storage duty ratio (with -rtn)")
		nis      = flag.Int("nis", 100000, "importance samples per point")
		eccBits  = flag.Int("ecc", 0, "correctable bits per word (0 = no ECC)")
		wordBits = flag.Int("wordbits", 72, "word width for ECC accounting")
		seed     = flag.Int64("seed", 1, "random seed")
		mode     = flag.String("mode", "read", "failure criterion: read, write or hold")
		tempK    = flag.Float64("temp", 300, "junction temperature [K]")
	)
	flag.Parse()

	var failMode ecripse.FailureMode
	switch *mode {
	case "read":
		failMode = ecripse.ReadFailure
	case "write":
		failMode = ecripse.WriteFailure
	case "hold":
		failMode = ecripse.HoldFailure
	default:
		fmt.Fprintf(os.Stderr, "yield: unknown -mode %q\n", *mode)
		os.Exit(2)
	}

	cells := *megabits * 1024 * 1024
	fmt.Printf("# %s-failure yield, %.0f Mb array", failMode, *megabits)
	if *eccBits > 0 {
		fmt.Printf(", %d-bit correction per %d-bit word", *eccBits, *wordBits)
	}
	if *withRTN {
		fmt.Printf(", RTN at alpha=%.2f", *alpha)
	}
	fmt.Println()
	fmt.Println("# vdd,Pfail,CI95,array-yield,sims")

	for _, tok := range strings.Split(*vddList, ",") {
		vdd, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "yield: bad vdd %q: %v\n", tok, err)
			os.Exit(2)
		}
		cell := ecripse.NewCellAt(vdd, *tempK)
		est := ecripse.New(cell, ecripse.Options{NIS: *nis, Mode: failMode})
		var res ecripse.Result
		if *withRTN {
			res, err = est.FailureProbabilityRTN(*seed, ecripse.TableIRTN(cell), *alpha)
		} else {
			res, err = est.FailureProbability(*seed)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "yield: vdd %.3f: %v\n", vdd, err)
			os.Exit(1)
		}
		p := res.Estimate.P
		var y float64
		if *eccBits > 0 {
			y = stats.ECCArrayYield(p, cells/float64(*wordBits), *wordBits, *eccBits)
		} else {
			y = stats.ArrayYield(p, cells)
		}
		fmt.Printf("%.3f,%.4e,%.4e,%.4g,%d\n", vdd, p, res.Estimate.CI95, y, res.Estimate.Sims)
	}
}
