package bench

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"haac/internal/circuit"
	"haac/internal/gc"
	"haac/internal/label"
	"haac/internal/ot"
	"haac/internal/proto"
	"haac/internal/workloads"
)

// Parallel-garbling experiment: the plan engine's garbling throughput
// at several worker counts against the gate-by-gate reference garbler,
// plus one in-process 2PC wall time. This is the software counterpart
// of the paper's gate-engine scaling study (Fig. 8): schedule steps
// expose the ILP, the worker pool plays the GEs.

// ParallelRow reports one workload's garbling throughput at several
// worker counts.
type ParallelRow struct {
	Name     string
	ANDGates int
	// SeqNs is the reference gc.Garble wall time.
	SeqNs int64
	// WorkerNs maps worker count to gc.GarblePlan wall time over a
	// precompiled plan.
	WorkerNs map[int]int64
	// Seq2PCNs is the in-process 2PC wall time; 2PC runs are
	// sequential on both sides.
	Seq2PCNs int64
}

// Speedup returns the parallel speedup at the given worker count.
func (r ParallelRow) Speedup(workers int) float64 {
	ns, ok := r.WorkerNs[workers]
	if !ok || ns == 0 {
		return 0
	}
	return float64(r.SeqNs) / float64(ns)
}

// parallelWorkerCounts are the pool widths the experiment sweeps.
var parallelWorkerCounts = []int{1, 2, 4, 8}

// ParallelGarbling measures the plan engine against the reference
// garbler on the widest workloads of the suite.
func (e *Env) ParallelGarbling() ([]ParallelRow, string, error) {
	names := map[string]bool{"DotProd": true, "MatMult": true, "Merse": true}
	h := gc.RekeyedHasher{}
	var rows []ParallelRow
	for _, w := range e.Scale.Suite() {
		if !names[w.Name] {
			continue
		}
		c := e.Circuit(w)
		and, _, _ := c.CountOps()
		plan, err := circuit.NewPlan(c)
		if err != nil {
			return nil, "", err
		}
		row := ParallelRow{Name: w.Name, ANDGates: and, WorkerNs: map[int]int64{}}

		start := time.Now()
		if _, err := gc.Garble(c, h, label.NewSource(7)); err != nil {
			return nil, "", err
		}
		row.SeqNs = time.Since(start).Nanoseconds()

		for _, workers := range parallelWorkerCounts {
			start = time.Now()
			if _, err := gc.GarblePlan(plan, h, label.NewSource(7), workers); err != nil {
				return nil, "", err
			}
			row.WorkerNs[workers] = time.Since(start).Nanoseconds()
		}

		seq2, err := time2PC(w, c, proto.Options{OT: ot.Insecure, Seed: 7, Plan: plan})
		if err != nil {
			return nil, "", err
		}
		row.Seq2PCNs = seq2.Nanoseconds()
		rows = append(rows, row)
	}

	header := []string{"Bench", "ANDs", "seq ms"}
	for _, wk := range parallelWorkerCounts {
		header = append(header, fmt.Sprintf("x%d", wk))
	}
	header = append(header, "2PC seq ms")
	var cells [][]string
	for _, r := range rows {
		row := []string{r.Name, fmt.Sprint(r.ANDGates), ms(time.Duration(r.SeqNs))}
		for _, wk := range parallelWorkerCounts {
			row = append(row, fmt.Sprintf("%.2f", r.Speedup(wk)))
		}
		row = append(row, ms(time.Duration(r.Seq2PCNs)))
		cells = append(cells, row)
	}
	s := table(header, cells)
	s += fmt.Sprintf("\n(xN columns are the plan engine's speedup over the reference garbler at N workers;\nhost has %d CPU(s) — read each xN column against x1: on small hosts widths above 1 have read below it)\n",
		runtime.NumCPU())
	return rows, s, nil
}

// time2PC runs one in-process 2PC execution over a pipe and returns its
// wall time.
func time2PC(w workloads.Workload, c *circuit.Circuit, opts proto.Options) (time.Duration, error) {
	g, e := w.Inputs(13)
	ga, ev := net.Pipe()
	defer ga.Close()
	defer ev.Close()
	errCh := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := proto.RunGarbler(ga, c, g, opts)
		errCh <- err
	}()
	if _, err := proto.RunEvaluator(ev, c, e, opts); err != nil {
		return 0, err
	}
	if err := <-errCh; err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
