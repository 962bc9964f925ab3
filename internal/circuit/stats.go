package circuit

import "slices"

// Stats summarises the structural properties Table 2 of the paper
// reports for each benchmark.
type Stats struct {
	Levels      int     // depth of the gate dependence graph ("# Levels")
	Wires       int     // total wires ("# Wires")
	Gates       int     // total gates ("# Gates")
	ANDGates    int     // number of AND gates
	ANDPercent  float64 // "AND %"
	ILP         float64 // average gates per level ("ILP")
	MaxLevelILP int     // widest level, useful for sizing sweeps
}

// ComputeStats levels the dependence graph in gate order (Levels with no
// cuts) and derives Table 2's characteristics. ILP is gates/levels, the
// paper's average-parallelism measure.
func (c *Circuit) ComputeStats() Stats {
	levels, top := Levels(c, nil, nil)
	width := make([]int, top+1)
	for _, l := range levels {
		width[l]++
	}
	and, _, _ := c.CountOps()
	s := Stats{
		Levels:      int(top),
		Wires:       c.NumWires(),
		Gates:       len(c.Gates),
		ANDGates:    and,
		MaxLevelILP: slices.Max(width),
	}
	if s.Gates > 0 {
		s.ANDPercent = 100 * float64(and) / float64(s.Gates)
	}
	if s.Levels > 0 {
		s.ILP = float64(s.Gates) / float64(s.Levels)
	}
	return s
}
