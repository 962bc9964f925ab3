package gc

import (
	"sync"

	"haac/internal/circuit"
)

// Step parallelism for the plan runners. The AND gates of one schedule
// step are independent (every producer ran in an earlier step), so each
// step can be partitioned across a worker pool — the software analogue
// of HAAC's parallel gate engines. The output is byte-identical to the
// reference Garble/Evaluate: tweaks and table positions are the
// gate-order stream indices regardless of which worker garbles a gate,
// and the label source is consumed only for the input wires.

// minParallelStep is the smallest number of AND gates in a step worth
// dispatching to the pool; below it the per-step synchronization costs
// more than the hashing. Segment-local steps are narrower than
// whole-circuit levels were (on the paper-scale VIP suite most hold
// 16..63 AND gates), so this threshold decides whether the pool sees
// most steps or few. It has not been retuned for them: the only host it
// was re-checked on has two busy vCPUs, where a pool loses at every
// threshold and nothing can show what idle cores would win.
const minParallelStep = 16

// spanFunc garbles or evaluates a run of one step's AND gates; index[i]
// is the table-stream index of and[i].
type spanFunc func(and []circuit.Gate, index []int32)

// span is one worker's share of a step.
type span struct {
	and   []circuit.Gate
	index []int32
}

// stepPool is a fixed set of workers processing contiguous spans of a
// step's AND gates, all through the runner's one span function; run
// dispatches one step and blocks until it completes.
type stepPool struct {
	workers int
	tasks   chan span
	wg      sync.WaitGroup
}

// newStepPool starts the workers.
func newStepPool(workers int, do spanFunc) *stepPool {
	p := &stepPool{workers: workers, tasks: make(chan span, workers)}
	for i := 0; i < workers; i++ {
		go func() {
			for s := range p.tasks {
				do(s.and, s.index)
				p.wg.Done()
			}
		}()
	}
	return p
}

// run partitions a step's AND gates into at most p.workers contiguous
// chunks and waits for all of them. Workers touch disjoint table and
// wire slots: the gates of a step are independent.
func (p *stepPool) run(and []circuit.Gate, index []int32) {
	n := len(and)
	if n == 0 {
		return
	}
	chunk := (n + p.workers - 1) / p.workers
	chunk += chunk & 1 // even, so only the last chunk ends in a one-gate tail
	p.wg.Add((n + chunk - 1) / chunk)
	for off := 0; off < n; off += chunk {
		end := min(off+chunk, n)
		p.tasks <- span{and[off:end], index[off:end]}
	}
	p.wg.Wait()
}

func (p *stepPool) close() { close(p.tasks) }
