package circuit

// Levels is the one dependence-level pass (§4.2.1) behind the plan's
// steps, the compiler's reordering and Table 2's depth and ILP. order
// lists the gate indices of c in a valid execution order, nil meaning
// gate order, and a new segment starts at each position listed in cuts,
// which must be nondecreasing. lvl[pos] is the 1-based level of gate
// order[pos]: one above its latest producer, and never below the first
// level of its own segment, so every segment's levels lie above all the
// levels of the segments before it. Primary inputs are level 0, and an
// INV gate's B field is never read. top is the highest level, 0 for a
// circuit without gates. It is O(gates + wires).
func Levels(c *Circuit, order, cuts []int32) (lvl []int32, top int32) {
	nin := int32(c.NumInputs())
	wireLvl := make([]int32, c.NumWires())
	lvl = make([]int32, len(c.Gates))
	var base int32
	for pos := range lvl {
		for len(cuts) > 0 && cuts[0] <= int32(pos) {
			base, cuts = top, cuts[1:]
		}
		i := int32(pos)
		if order != nil {
			i = order[pos]
		}
		g := &c.Gates[i]
		k := max(base, wireLvl[g.A])
		if g.Op != INV {
			k = max(k, wireLvl[g.B])
		}
		k++
		wireLvl[nin+i] = k
		lvl[pos] = k
		top = max(top, k)
	}
	return lvl, top
}
