package gc

import "sync"

// Level parallelism for the plan runners. Gates at the same dependence
// level are independent (every producer sits at a strictly lower
// level), so each AND level can be partitioned across a worker pool —
// the software analogue of HAAC's parallel gate engines. The output is
// byte-identical to the reference Garble/Evaluate: tweaks and table
// positions are the gate-order stream indices regardless of which
// worker garbles a gate, and the label source is consumed only for the
// input wires.

// minParallelLevel is the smallest number of AND gates in a level worth
// dispatching to the pool; below it the per-level synchronization costs
// more than the hashing.
const minParallelLevel = 16

// levelPool is a fixed set of workers processing contiguous spans of a
// level's AND-gate list. The per-gate work function is fixed at
// construction; run dispatches one level and blocks until it completes.
type levelPool struct {
	workers int
	tasks   chan []int32
	wg      sync.WaitGroup
}

func newLevelPool(workers int, do func(gates []int32)) *levelPool {
	p := &levelPool{workers: workers, tasks: make(chan []int32, workers)}
	for i := 0; i < workers; i++ {
		go func() {
			for gates := range p.tasks {
				do(gates)
				p.wg.Done()
			}
		}()
	}
	return p
}

// run partitions gates into at most p.workers contiguous chunks and
// waits for all of them. Chunks preserve gate order within each span, so
// workers touch disjoint table and wire slots.
func (p *levelPool) run(gates []int32) {
	n := len(gates)
	chunk := (n + p.workers - 1) / p.workers
	p.wg.Add((n + chunk - 1) / chunk)
	for off := 0; off < n; off += chunk {
		end := off + chunk
		if end > n {
			end = n
		}
		p.tasks <- gates[off:end]
	}
	p.wg.Wait()
}

func (p *levelPool) close() { close(p.tasks) }
