package circuit

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

// ComputeStats levels the dependence graph and derives Table 2's
// characteristics. Level of a gate = 1 + max(level of producers); primary
// inputs are level 0. ILP is gates/levels, the paper's average-parallelism
// measure.
func (c *Circuit) ComputeStats() Stats {
	levels := c.Levels()
	maxLevel := 0
	width := make(map[int]int)
	for _, l := range levels {
		if l > maxLevel {
			maxLevel = l
		}
		width[l]++
	}
	maxWidth := 0
	for _, w := range width {
		if w > maxWidth {
			maxWidth = w
		}
	}
	and, _, _ := c.CountOps()
	s := Stats{
		Levels:      maxLevel,
		Wires:       c.NumWires,
		Gates:       len(c.Gates),
		ANDGates:    and,
		MaxLevelILP: maxWidth,
	}
	if s.Gates > 0 {
		s.ANDPercent = 100 * float64(and) / float64(s.Gates)
	}
	if s.Levels > 0 {
		s.ILP = float64(s.Gates) / float64(s.Levels)
	}
	return s
}

// Levels returns, for each gate (indexed as in c.Gates), its level in the
// dependence graph: 1 for gates fed only by primary inputs, otherwise
// 1 + max(level of producing gates). This is the leveling the full-reorder
// compiler pass uses for its breadth-first schedule.
func (c *Circuit) Levels() []int {
	wireLevel := make([]int32, c.NumWires) // level of the producing gate; inputs are 0
	levels := make([]int, len(c.Gates))
	for i := range c.Gates {
		g := &c.Gates[i]
		l := wireLevel[g.A]
		if g.Op != INV {
			if lb := wireLevel[g.B]; lb > l {
				l = lb
			}
		}
		l++
		wireLevel[g.C] = l
		levels[i] = int(l)
	}
	return levels
}
