// Command haac-compile lowers a Boolean circuit to a HAAC program,
// running the paper's optimization passes, and reports program and
// traffic statistics. Circuits come either from a Bristol-format netlist
// file (the EMP flow of Fig. 5) or from a built-in workload generator.
//
// Usage:
//
//	haac-compile -workload MatMult [-reorder full] [-esw] [-sww-mb 2] [-ges 16] [-o prog.haac]
//	haac-compile -in netlist.txt -reorder seg -o prog.haac
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"haac/internal/circuit"
	"haac/internal/compiler"
	"haac/internal/isa"
	"haac/internal/opt"
	"haac/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, compiles and reports,
// and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("haac-compile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "Bristol netlist file")
	workload := fs.String("workload", "", "built-in workload name (BubbSt, DotProd, Merse, Triangle, Hamm, MatMult, ReLU, GradDesc, or a micro benchmark)")
	small := fs.Bool("small", false, "use reduced workload sizes")
	reorder := fs.String("reorder", "full", "instruction schedule: baseline, full, or seg")
	esw := fs.Bool("esw", true, "eliminate spent wires (live-bit optimization)")
	swwMB := fs.Float64("sww-mb", 2, "sliding wire window size in MB")
	ges := fs.Int("ges", 16, "number of gate engines")
	garbler := fs.Bool("garbler", false, "schedule for the Garbler pipeline (21-stage) instead of the Evaluator (18)")
	optimize := fs.Bool("optimize", false, "run netlist optimizations (constant folding, CSE, DCE) before compiling")
	disasm := fs.Int("disasm", 0, "print a disassembly of the first N instructions")
	out := fs.String("o", "", "output file for the serialized program")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	c, name, err := loadCircuit(*in, *workload, *small)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *optimize {
		oc, res, err := opt.Optimize(c)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, res)
		c = oc
	}

	mode, err := compiler.ParseReorderMode(*reorder)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	cfg := compiler.Config{
		Reorder:         mode,
		ESW:             *esw,
		SWWWires:        int(*swwMB * 1024 * 1024 / 16),
		NumGEs:          *ges,
		GarblerPipeline: *garbler,
	}
	cp, err := compiler.Compile(c, cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	s := c.ComputeStats()
	p := &cp.Program
	fmt.Fprintf(stdout, "circuit   %s: %d gates (%.1f%% AND), %d levels, ILP %.0f\n",
		name, s.Gates, s.ANDPercent, s.Levels, s.ILP)
	fmt.Fprintf(stdout, "program   %d instructions (%d AND), %d inputs, %d outputs\n",
		len(p.Instrs), p.NumANDs(), p.NumInputs, len(p.OutputAddrs))
	fmt.Fprintf(stdout, "schedule  %s reorder, ESW=%v, %d GEs, %.3g MB SWW (%s pipeline)\n",
		mode, *esw, *ges, *swwMB, party(*garbler))
	fmt.Fprintf(stdout, "traffic   live wires %d, OoR reads %d, spent %.2f%%\n",
		cp.Traffic.LiveWires, cp.Traffic.OoRWires, cp.Traffic.SpentPercent())
	for g, n := range cp.InstrsPerGE {
		if g < 4 || g == len(cp.InstrsPerGE)-1 {
			fmt.Fprintf(stdout, "  GE%-2d  %d instrs, %d tables, %d OoRW entries\n",
				g, n, cp.TablesPerGE[g], len(cp.OoRW[g]))
		} else if g == 4 {
			fmt.Fprintf(stdout, "  ...\n")
		}
	}

	if *disasm > 0 {
		if err := isa.Disassemble(stdout, p, *disasm); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		n, err := p.WriteTo(f)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d bytes)\n", *out, n)
	}
	return 0
}

func party(garbler bool) string {
	if garbler {
		return "Garbler"
	}
	return "Evaluator"
}

func loadCircuit(in, workload string, small bool) (*circuit.Circuit, string, error) {
	switch {
	case in != "" && workload != "":
		return nil, "", fmt.Errorf("use either -in or -workload, not both")
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		c, err := circuit.ReadBristol(f)
		return c, in, err
	case workload != "":
		w, err := workloads.Find(workload, small)
		if err != nil {
			return nil, "", err
		}
		return w.Build(), w.Name, nil
	}
	return nil, "", fmt.Errorf("one of -in or -workload is required")
}
