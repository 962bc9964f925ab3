package builder

// Word is a little-endian vector of wires: w[0] is the least significant
// bit. All arithmetic below follows two's-complement conventions.
type Word []Wire

// ConstWord returns a width-bit public constant word for v.
func (b *B) ConstWord(v uint64, width int) Word {
	w := make(Word, width)
	for i := range w {
		w[i] = b.Const(v>>uint(i)&1 == 1)
	}
	return w
}

// ZeroWord returns a width-bit all-zero word.
func (b *B) ZeroWord(width int) Word { return b.ConstWord(0, width) }

// XORWords returns the bitwise XOR of equal-width words.
func (b *B) XORWords(x, y Word) Word {
	mustSameWidth("XORWords", x, y)
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.XOR(x[i], y[i])
	}
	return out
}

// ORWords returns the bitwise OR of equal-width words.
func (b *B) ORWords(x, y Word) Word {
	mustSameWidth("ORWords", x, y)
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.OR(x[i], y[i])
	}
	return out
}

// NOTWord returns the bitwise complement.
func (b *B) NOTWord(x Word) Word {
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.NOT(x[i])
	}
	return out
}

// ANDConst masks x with the constant mask; masked-off bits cost nothing.
func (b *B) ANDConst(x Word, mask uint64) Word {
	out := make(Word, len(x))
	for i := range x {
		if mask>>uint(i)&1 == 1 {
			out[i] = x[i]
		} else {
			out[i] = b.Const(false)
		}
	}
	return out
}

// addCarry is a full adder using the single-AND formulation:
//
//	sum  = x ^ y ^ cin
//	cout = cin ^ ((x^cin) & (y^cin))
func (b *B) addCarry(x, y, cin Wire) (sum, cout Wire) {
	xc := b.XOR(x, cin)
	yc := b.XOR(y, cin)
	sum = b.XOR(xc, y)
	cout = b.XOR(cin, b.AND(xc, yc))
	return
}

// AddCin returns x + y + cin truncated to len(x) bits, plus the carry out.
func (b *B) AddCin(x, y Word, cin Wire) (Word, Wire) {
	mustSameWidth("Add", x, y)
	return b.addCinInto(make(Word, len(x)), x, y, cin)
}

// addCinInto is AddCin writing the sum into out.
func (b *B) addCinInto(out, x, y Word, cin Wire) (Word, Wire) {
	c := cin
	for i := range x {
		out[i], c = b.addCarry(x[i], y[i], c)
	}
	return out, c
}

// Add returns x + y truncated to the operand width.
func (b *B) Add(x, y Word) Word {
	s, _ := b.AddCin(x, y, b.Const(false))
	return s
}

// Sub returns x - y truncated to the operand width (x + ~y + 1).
func (b *B) Sub(x, y Word) Word {
	s, _ := b.AddCin(x, b.NOTWord(y), b.Const(true))
	return s
}

// SubBorrow returns x - y and a wire that is 1 when the subtraction
// borrowed (i.e. x < y as unsigned integers).
func (b *B) SubBorrow(x, y Word) (Word, Wire) {
	s, carry := b.AddCin(x, b.NOTWord(y), b.Const(true))
	return s, b.NOT(carry)
}

// Inc returns x + 1.
func (b *B) Inc(x Word) Word {
	s, _ := b.AddCin(x, b.ZeroWord(len(x)), b.Const(true))
	return s
}

// Mul returns the low len(x) bits of x * y (school multiplication).
func (b *B) Mul(x, y Word) Word {
	mustSameWidth("Mul", x, y)
	n := len(x)
	acc := b.ZeroWord(n)
	pp := make(Word, n) // reused: Add reads it and returns a fresh sum
	for i := 0; i < n; i++ {
		// Partial product of y_i with the bits of x that still land
		// inside the truncated result.
		for j := range pp {
			pp[j] = b.Const(false)
		}
		for j := 0; i+j < n; j++ {
			pp[i+j] = b.AND(x[j], y[i])
		}
		acc = b.Add(acc, pp)
	}
	return acc
}

// MulFull returns the full 2n-bit product of two n-bit words.
func (b *B) MulFull(x, y Word) Word {
	mustSameWidth("MulFull", x, y)
	n := len(x)
	acc := b.ZeroWord(2 * n)
	for i := 0; i < n; i++ {
		pp := b.ZeroWord(2 * n)
		for j := 0; j < n; j++ {
			pp[i+j] = b.AND(x[j], y[i])
		}
		acc = b.Add(acc, pp)
	}
	return acc
}

// LtU returns 1 iff x < y as unsigned integers.
func (b *B) LtU(x, y Word) Wire {
	_, borrow := b.SubBorrow(x, y)
	return borrow
}

// GtU returns 1 iff x > y as unsigned integers.
func (b *B) GtU(x, y Word) Wire { return b.LtU(y, x) }

// LtS returns 1 iff x < y as two's-complement signed integers. Flipping
// the sign bits reduces signed comparison to unsigned comparison.
func (b *B) LtS(x, y Word) Wire {
	mustSameWidth("LtS", x, y)
	n := len(x)
	xf := append(append(Word{}, x[:n-1]...), b.NOT(x[n-1]))
	yf := append(append(Word{}, y[:n-1]...), b.NOT(y[n-1]))
	return b.LtU(xf, yf)
}

// EqConst returns 1 iff x equals the constant v.
func (b *B) EqConst(x Word, v uint64) Wire {
	bits := make([]Wire, len(x))
	for i := range x {
		if v>>uint(i)&1 == 1 {
			bits[i] = x[i]
		} else {
			bits[i] = b.NOT(x[i])
		}
	}
	return b.AndTree(bits)
}

// IsZero returns 1 iff all bits of x are 0.
func (b *B) IsZero(x Word) Wire { return b.EqConst(x, 0) }

// NonZero returns 1 iff any bit of x is 1.
func (b *B) NonZero(x Word) Wire { return b.NOT(b.IsZero(x)) }

// AndTree reduces bits with a balanced AND tree (log depth).
func (b *B) AndTree(bits []Wire) Wire { return b.tree(bits, b.AND) }

// OrTree reduces bits with a balanced OR tree (log depth).
func (b *B) OrTree(bits []Wire) Wire { return b.tree(bits, b.OR) }

// XorTree reduces bits with a balanced XOR tree (log depth, free).
func (b *B) XorTree(bits []Wire) Wire { return b.tree(bits, b.XOR) }

func (b *B) tree(bits []Wire, op func(Wire, Wire) Wire) Wire {
	if len(bits) == 0 {
		return b.Const(false)
	}
	work := append([]Wire(nil), bits...)
	for len(work) > 1 {
		next := work[: 0 : len(work)/2+1]
		var i int
		for i = 0; i+1 < len(work); i += 2 {
			next = append(next, op(work[i], work[i+1]))
		}
		if i < len(work) {
			next = append(next, work[i])
		}
		work = next
	}
	return work[0]
}

// MuxWord returns s ? t : f elementwise over equal-width words.
func (b *B) MuxWord(s Wire, t, f Word) Word {
	mustSameWidth("MuxWord", t, f)
	out := make(Word, len(t))
	for i := range t {
		out[i] = b.MUX(s, t[i], f[i])
	}
	return out
}

// SortPair returns (min, max) of x and y as unsigned integers with a
// single comparison — the compare-and-swap block bubble sort is made of.
func (b *B) SortPair(x, y Word) (lo, hi Word) {
	swap := b.LtU(y, x)
	lo = b.MuxWord(swap, y, x)
	hi = b.MuxWord(swap, x, y)
	return
}

// ShlConst shifts left by the constant k, filling with zeros (width kept).
func (b *B) ShlConst(x Word, k int) Word {
	n := len(x)
	out := make(Word, n)
	for i := range out {
		if i-k >= 0 && i-k < n {
			out[i] = x[i-k]
		} else {
			out[i] = b.Const(false)
		}
	}
	return out
}

// ShrConst shifts right logically by the constant k (width kept).
func (b *B) ShrConst(x Word, k int) Word {
	n := len(x)
	out := make(Word, n)
	for i := range out {
		if i+k < n {
			out[i] = x[i+k]
		} else {
			out[i] = b.Const(false)
		}
	}
	return out
}

// ShrArithConst shifts right arithmetically by the constant k,
// replicating the sign bit.
func (b *B) ShrArithConst(x Word, k int) Word {
	n := len(x)
	out := make(Word, n)
	s := x[n-1]
	for i := range out {
		if i+k < n {
			out[i] = x[i+k]
		} else {
			out[i] = s
		}
	}
	return out
}

// ShrVar shifts x right logically by the amount in sh (unsigned). A
// logarithmic barrel shifter: stage i conditionally shifts by 2^i. Shift
// amounts >= len(x) produce zero.
func (b *B) ShrVar(x Word, sh Word) Word {
	out := append(Word(nil), x...)
	for i := 0; i < len(sh); i++ {
		k := 1 << uint(i)
		if k >= len(x) {
			// Any set bit here zeroes the result.
			zero := b.ZeroWord(len(x))
			out = b.MuxWord(sh[i], zero, out)
			continue
		}
		out = b.MuxWord(sh[i], b.ShrConst(out, k), out)
	}
	return out
}

// ShlVar shifts x left by the amount in sh (unsigned), zero filling.
func (b *B) ShlVar(x Word, sh Word) Word {
	out := append(Word(nil), x...)
	for i := 0; i < len(sh); i++ {
		k := 1 << uint(i)
		if k >= len(x) {
			zero := b.ZeroWord(len(x))
			out = b.MuxWord(sh[i], zero, out)
			continue
		}
		out = b.MuxWord(sh[i], b.ShlConst(out, k), out)
	}
	return out
}

// PopCount returns the number of set bits as a ceil(log2(n+1))-bit word,
// built as a balanced adder tree (the Hamming-distance kernel).
func (b *B) PopCount(bits []Wire) Word {
	switch len(bits) {
	case 0:
		return Word{b.Const(false)}
	case 1:
		return Word{bits[0]}
	}
	// The leaves are one-bit views of bits, each level's sums overwrite
	// the front of words and share one backing array, and the operands
	// are widened in two scratch words: one allocation per level.
	words := make([]Word, len(bits))
	for i := range bits {
		words[i] = bits[i : i+1 : i+1]
	}
	var xa, xc Word
	for len(words) > 1 {
		// words[0] is the widest word of every level.
		sums := make(Word, len(words)/2*(len(words[0])+1))
		n := 0
		for i := 0; i+1 < len(words); i += 2 {
			a, c := words[i], words[i+1]
			// Widen to equal size +1 for carry.
			w := maxInt(len(a), len(c)) + 1
			xa, xc = b.extendZeroInto(xa, a, w), b.extendZeroInto(xc, c, w)
			words[n], _ = b.addCinInto(sums[:w:w], xa, xc, b.Const(false))
			sums = sums[w:]
			n++
		}
		if len(words)%2 == 1 {
			words[n] = words[len(words)-1]
			n++
		}
		words = words[:n]
	}
	return words[0]
}

// LeadingZeros returns the number of leading (most-significant) zero bits
// of x as a ceil(log2(n+1))-bit word. Used by FP normalization.
func (b *B) LeadingZeros(x Word) Word {
	n := len(x)
	width := 1
	for 1<<uint(width) < n+1 {
		width++
	}
	// Scan from MSB: count = found ? count : count+1, stop when a 1 seen.
	count := b.ZeroWord(width)
	found := b.Const(false)
	for i := n - 1; i >= 0; i-- {
		found = b.OR(found, x[i])
		count = b.MuxWord(found, count, b.Inc(count))
	}
	return count
}

// extendZero zero-extends x to width bits (or truncates).
func (b *B) extendZero(x Word, width int) Word {
	if len(x) >= width {
		return x[:width]
	}
	return b.extendZeroInto(make(Word, 0, width), x, width)
}

// extendZeroInto is extendZero for width > len(x) that writes into
// dst's storage when it is large enough.
func (b *B) extendZeroInto(dst, x Word, width int) Word {
	dst = append(dst[:0], x...)
	for len(dst) < width {
		dst = append(dst, b.Const(false))
	}
	return dst
}

// ExtendZero is the exported zero-extension helper.
func (b *B) ExtendZero(x Word, width int) Word { return b.extendZero(x, width) }

// ExtendSign sign-extends x to width bits.
func (b *B) ExtendSign(x Word, width int) Word {
	if len(x) >= width {
		return x[:width]
	}
	out := make(Word, width)
	copy(out, x)
	s := x[len(x)-1]
	for i := len(x); i < width; i++ {
		out[i] = s
	}
	return out
}

func mustSameWidth(op string, x, y Word) {
	if len(x) != len(y) {
		panic("builder: " + op + ": operand widths differ")
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
