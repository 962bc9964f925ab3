// accelerator explores the HAAC design space on one workload: it sweeps
// gate-engine counts and DRAM technologies, reproducing the scaling
// story of the paper's Fig. 8 on a single benchmark, and prints the
// area/energy consequences of each design point.
//
//	go run ./examples/accelerator            # reduced-size MatMult
//	go run ./examples/accelerator -paper     # the paper's 8x8x32 MatMult
package main

import (
	"flag"
	"fmt"
	"log"

	"haac"
)

func main() {
	paper := flag.Bool("paper", false, "use the paper-scale workload (slower)")
	flag.Parse()

	suite := haac.VIPSuiteSmall()
	if *paper {
		suite = haac.VIPSuite()
	}
	var w haac.Workload
	for _, cand := range suite {
		if cand.Name == "MatMult" {
			w = cand
		}
	}
	c := w.Build()
	s := c.ComputeStats()
	fmt.Printf("%s: %s\n%d gates (%.1f%% AND), %d levels, ILP %.0f\n\n",
		w.Name, w.Description, s.Gates, s.ANDPercent, s.Levels, s.ILP)

	fmt.Printf("%4s  %6s  %12s  %12s  %9s  %9s\n",
		"GEs", "DRAM", "time", "compute", "area mm2", "energy J")
	for _, dram := range []haac.DRAM{haac.DDR4, haac.HBM2} {
		for _, nge := range []int{1, 2, 4, 8, 16} {
			cfg := haac.DefaultCompilerConfig()
			cfg.NumGEs = nge
			if !*paper {
				cfg.SWWWires = 4096
			}
			cp, err := haac.Compile(c, cfg)
			if err != nil {
				log.Fatal(err)
			}
			hw := haac.DefaultHW()
			hw.DRAM = dram
			res, err := haac.Simulate(cp, hw)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%4d  %6s  %12v  %12v  %9.2f  %9.3g\n",
				nge, dram.Name, res.Time(), res.ComputeTime(),
				haac.AreaOf(cfg), haac.EnergyOf(res).Total())
		}
	}
	fmt.Println("\nWhere the DDR4 column stops improving while HBM2 keeps scaling,")
	fmt.Println("the design has hit the memory-bandwidth wall — the Fig. 8 story.")
}
