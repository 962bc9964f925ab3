package sim

import (
	"fmt"

	"haac/internal/compiler"
)

// Multi-core HAAC: §6.5 of the paper lists "higher levels of parallelism
// (e.g., multiple HAAC cores)" as the path to closing the remaining gap
// to plaintext. This models the natural first step: C independent HAAC
// cores (each with its own GEs, SWW and queues) sharing one off-chip
// memory interface, executing a batch of independent program shards —
// the shape of batched workloads (many gradient-descent problems, many
// AES blocks, many inference requests).
//
// Scaling is limited exactly where the paper predicts: once the
// aggregate stream traffic saturates the shared interface, extra cores
// stop helping. Memory-bound workloads (ReLU on HBM2 at 16 GEs) gain
// nothing; compute-bound ones (GradDesc) scale until the wall.

// MultiResult aggregates a multi-core simulation.
type MultiResult struct {
	PerShard []Result
	// ComputeCycles is the busiest core's total compute time.
	ComputeCycles int64
	// TrafficCycles is the aggregate stream traffic at the shared
	// memory interface.
	TrafficCycles int64
	// TotalCycles = max(compute, traffic).
	TotalCycles int64
	HW          HW
	Cores       int
}

// Time converts to wall clock seconds at the GE clock.
func (m MultiResult) Time() float64 {
	return float64(m.TotalCycles) / m.HW.GEClock
}

// SimulateMultiCore distributes the shards round-robin over `cores`
// identical HAAC cores sharing hw.DRAM's bandwidth. Shards assigned to
// the same core run back to back.
func SimulateMultiCore(shards []*compiler.Compiled, hw HW, cores int) (MultiResult, error) {
	if len(shards) == 0 {
		return MultiResult{}, fmt.Errorf("sim: no shards")
	}
	if cores < 1 {
		return MultiResult{}, fmt.Errorf("sim: need at least one core")
	}
	out := MultiResult{HW: hw, Cores: cores}
	perCore := make([]int64, cores)
	var totalBytes int64

	// Identical shards are common in batch workloads; memoize.
	type key = *compiler.Compiled
	memo := map[key]Result{}
	for i, cp := range shards {
		r, ok := memo[cp]
		if !ok {
			var err error
			r, err = Simulate(cp, hw)
			if err != nil {
				return MultiResult{}, fmt.Errorf("sim: shard %d: %w", i, err)
			}
			memo[cp] = r
		}
		out.PerShard = append(out.PerShard, r)
		perCore[i%cores] += r.ComputeCycles + int64(cp.Cfg.ANDLatency())
		totalBytes += r.Traffic.TotalBytes()
	}
	for _, c := range perCore {
		if c > out.ComputeCycles {
			out.ComputeCycles = c
		}
	}
	bytesPerCycle := hw.DRAM.Bandwidth / hw.GEClock
	out.TrafficCycles = int64(float64(totalBytes) / bytesPerCycle)
	out.TotalCycles = out.ComputeCycles
	if out.TrafficCycles > out.TotalCycles {
		out.TotalCycles = out.TrafficCycles
	}
	return out, nil
}
