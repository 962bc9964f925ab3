// compilerlab dissects the HAAC compiler on one workload: it compiles
// the same circuit under every scheduling mode, with and without
// eliminating spent wires, and shows how each §4 optimization changes
// stalls, wire traffic and end-to-end time — then verifies that every
// variant still computes the right answer by replaying the per-GE
// streams functionally.
//
//	go run ./examples/compilerlab [-workload DotProd]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"haac"
)

func main() {
	name := flag.String("workload", "DotProd", "small-suite workload name")
	flag.Parse()

	var w haac.Workload
	for _, cand := range haac.VIPSuiteSmall() {
		if strings.EqualFold(cand.Name, *name) {
			w = cand
		}
	}
	if w.Name == "" {
		log.Fatalf("unknown workload %q", *name)
	}
	c := w.Build()
	s := c.ComputeStats()
	fmt.Printf("%s: %s\n%d gates (%.1f%% AND), depth %d, ILP %.0f\n\n",
		w.Name, w.Description, s.Gates, s.ANDPercent, s.Levels, s.ILP)

	g, e := w.Inputs(7)
	want := w.Reference(g, e)

	fmt.Printf("%-22s  %10s  %10s  %8s  %8s  %8s\n",
		"configuration", "time", "compute", "stalls", "live", "OoR")
	for _, mode := range []haac.ReorderMode{haac.Baseline, haac.SegmentReorder, haac.FullReorder} {
		for _, esw := range []bool{false, true} {
			cfg := haac.DefaultCompilerConfig()
			cfg.Reorder = mode
			cfg.ESW = esw
			cfg.NumGEs = 8
			cfg.SWWWires = 512 // small window: forces spills and OoR reads
			cp, err := haac.Compile(c, cfg)
			if err != nil {
				log.Fatal(err)
			}

			// Functional replay: the compiled streams must still compute
			// the reference answer.
			in, err := cp.InputBits(c, g, e)
			if err != nil {
				log.Fatal(err)
			}
			got, err := cp.Execute(in)
			if err != nil {
				log.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					log.Fatalf("%v/ESW=%v: wrong answer at output %d", mode, esw, i)
				}
			}

			res, err := haac.Simulate(cp, haac.DefaultHW())
			if err != nil {
				log.Fatal(err)
			}
			label := fmt.Sprintf("%s, ESW=%v", mode, esw)
			fmt.Printf("%-22s  %10v  %10v  %8d  %8d  %8d\n",
				label, res.Time(), res.ComputeTime(), res.DataStallCycles,
				cp.Traffic.LiveWires, cp.Traffic.OoRWires)
		}
	}
	fmt.Println("\nAll six variants produced the reference answer (verified by")
	fmt.Println("replaying the per-GE instruction and OoRW-queue streams).")
	fmt.Println("Reordering cuts stalls; ESW cuts live-wire writebacks (§4.2).")
}
