package compiler

import (
	"fmt"
	"sort"

	"haac/internal/isa"
)

// Reuse-distance analysis. The SWW design rests on an empirical claim
// (§3.1.1: "We observe most generated wires are used by instructions
// that closely follow"): if wire reuse distances are short relative to
// the window, a contiguous sliding scratchpad filters almost all
// traffic without tags. This analysis measures the claim for any
// compiled program, and therefore also sizes the SWW for new workloads.

// ReuseStats summarizes producer→consumer distances in a program.
type ReuseStats struct {
	// Reads is the total number of wire reads (excluding OoR sentinel
	// rewrites — distances are computed on original addresses).
	Reads int
	// Median, P90, P99 are percentile reuse distances in instructions.
	Median, P90, P99 int
	// Max is the longest distance observed.
	Max int
	// CoveredBy reports, for each window size in wires, the fraction of
	// reads whose distance fits within half that window (the resident
	// guarantee of the sliding scheme).
	CoveredBy map[int]float64
}

// AnalyzeReuse computes reuse-distance statistics for the compiled
// program, using the logical (pre-OoR-rewrite) operand addresses.
func (cp *Compiled) AnalyzeReuse(windows []int) ReuseStats {
	p := &cp.Program
	var dists []int
	for j := range p.Instrs {
		in := &p.Instrs[j]
		if in.Op == isa.NOP {
			continue
		}
		for _, f := range [2]uint32{resolveAddr(in.A, cp.oorA[j]), resolveAddr(in.B, cp.oorB[j])} {
			if f == 0 {
				continue
			}
			// The producer's position: inputs at 0, instruction i at i+1.
			pos := max(isa.Rank(f)-p.NumInputs+1, 0)
			dists = append(dists, j+1-pos)
		}
	}
	sort.Ints(dists)
	st := ReuseStats{Reads: len(dists), CoveredBy: map[int]float64{}}
	if len(dists) == 0 {
		return st
	}
	pct := func(q float64) int { return dists[int(q*float64(len(dists)-1))] }
	st.Median = pct(0.5)
	st.P90 = pct(0.9)
	st.P99 = pct(0.99)
	st.Max = dists[len(dists)-1]
	for _, w := range windows {
		half := w / 2
		n := sort.SearchInts(dists, half+1)
		st.CoveredBy[w] = float64(n) / float64(len(dists))
	}
	return st
}

func resolveAddr(field, saved uint32) uint32 {
	if field == isa.OoR {
		return saved
	}
	return field
}

// String renders the stats.
func (s ReuseStats) String() string {
	out := fmt.Sprintf("reuse distances over %d reads: median %d, p90 %d, p99 %d, max %d",
		s.Reads, s.Median, s.P90, s.P99, s.Max)
	keys := make([]int, 0, len(s.CoveredBy))
	for k := range s.CoveredBy {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		out += fmt.Sprintf("\n  window %7d wires: %.1f%% of reads resident", k, 100*s.CoveredBy[k])
	}
	return out
}
