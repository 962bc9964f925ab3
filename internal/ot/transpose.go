package ot

// Bit-matrix transpose for the IKNP extension. The PRG naturally
// produces the OT matrix column-major (one 128-bit column per base OT,
// m rows long) while hashing consumes it row-major (one kappa-bit row
// per transfer). The old code flipped orientation one bit at a time —
// O(kappa·m) shift/test/set sequences dominating the whole extension.
// Here the flip is a cache-blocked sequence of 64×64 word transposes:
// each block is 64 uint64 loads, 6·32 swap steps of constant shift and
// mask (Hacker's Delight 7-3), and 64 stores, and both the column reads
// and the row writes walk memory sequentially. On the VAES tiers the
// same swap steps run lane-parallel (fill_amd64.s): one vector load
// takes eight (ZMM) or four (YMM) consecutive words of a column, so that
// many blocks go through the six stages side by side. The code below is
// the path for every other host, for chunks of fewer words than the
// vector has lanes, and the kernels' reference.

// transpose64 transposes a 64×64 bit matrix in place: bit c of word r
// moves to bit r of word c. It runs the six swap stages of shift
// j = 32, 16, … 1 — at each, the high-column half of word k trades places
// with the low-column half of word k+j for every k with bit j clear —
// in two passes of three: the first over the eight words k, k+8, … k+56
// for each k < 8 (j = 32, 16, 8), the second over each run of eight
// consecutive words (j = 4, 2, 1). The eight words of a pass stay in
// registers and every shift and mask is a constant.
func transpose64(a *[64]uint64) {
	for k := 0; k < 8; k++ {
		x0, x1, x2, x3 := a[k], a[k+8], a[k+16], a[k+24]
		x4, x5, x6, x7 := a[k+32], a[k+40], a[k+48], a[k+56]
		x0, x4 = swapBits(x0, x4, 32, 0x00000000FFFFFFFF)
		x1, x5 = swapBits(x1, x5, 32, 0x00000000FFFFFFFF)
		x2, x6 = swapBits(x2, x6, 32, 0x00000000FFFFFFFF)
		x3, x7 = swapBits(x3, x7, 32, 0x00000000FFFFFFFF)
		x0, x2 = swapBits(x0, x2, 16, 0x0000FFFF0000FFFF)
		x1, x3 = swapBits(x1, x3, 16, 0x0000FFFF0000FFFF)
		x4, x6 = swapBits(x4, x6, 16, 0x0000FFFF0000FFFF)
		x5, x7 = swapBits(x5, x7, 16, 0x0000FFFF0000FFFF)
		x0, x1 = swapBits(x0, x1, 8, 0x00FF00FF00FF00FF)
		x2, x3 = swapBits(x2, x3, 8, 0x00FF00FF00FF00FF)
		x4, x5 = swapBits(x4, x5, 8, 0x00FF00FF00FF00FF)
		x6, x7 = swapBits(x6, x7, 8, 0x00FF00FF00FF00FF)
		a[k], a[k+8], a[k+16], a[k+24] = x0, x1, x2, x3
		a[k+32], a[k+40], a[k+48], a[k+56] = x4, x5, x6, x7
	}
	for k := 0; k < 64; k += 8 {
		x := (*[8]uint64)(a[k : k+8])
		x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
		x0, x4 = swapBits(x0, x4, 4, 0x0F0F0F0F0F0F0F0F)
		x1, x5 = swapBits(x1, x5, 4, 0x0F0F0F0F0F0F0F0F)
		x2, x6 = swapBits(x2, x6, 4, 0x0F0F0F0F0F0F0F0F)
		x3, x7 = swapBits(x3, x7, 4, 0x0F0F0F0F0F0F0F0F)
		x0, x2 = swapBits(x0, x2, 2, 0x3333333333333333)
		x1, x3 = swapBits(x1, x3, 2, 0x3333333333333333)
		x4, x6 = swapBits(x4, x6, 2, 0x3333333333333333)
		x5, x7 = swapBits(x5, x7, 2, 0x3333333333333333)
		x0, x1 = swapBits(x0, x1, 1, 0x5555555555555555)
		x2, x3 = swapBits(x2, x3, 1, 0x5555555555555555)
		x4, x5 = swapBits(x4, x5, 1, 0x5555555555555555)
		x6, x7 = swapBits(x6, x7, 1, 0x5555555555555555)
		x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7] = x0, x1, x2, x3, x4, x5, x6, x7
	}
}

// swapBits is one swap step of transpose64 on words k (lo) and k+j (hi):
// the high j bits of every 2j-bit group of lo trade places with the low
// j bits of the same group of hi.
func swapBits(lo, hi uint64, j uint, m uint64) (uint64, uint64) {
	t := (lo>>j ^ hi) & m
	return lo ^ t<<j, hi ^ t
}

// transposeColumns converts the column-major chunk into rows.
// cols holds kappa columns, each colWords uint64 long (column i starts
// at cols[i*colWords]); word w of column i carries transfers 64w..64w+63.
// On return rows[j] is the kappa-bit row of transfer j for j < 64*colWords.
func transposeColumns(rows []row, cols []uint64, colWords int) {
	if !transposeKernel(liveFill, rows, cols, colWords, nil, 0, nil) {
		transposeColumnsGo(rows, cols, colWords)
	}
}

// transposeColumnsGo is transposeColumns one 64×64 block at a time.
func transposeColumnsGo(rows []row, cols []uint64, colWords int) {
	var blk [64]uint64
	for w := 0; w < rowWords; w++ { // 64-column band of the output row
		band := cols[w*64*colWords : (w+1)*64*colWords]
		for cw := 0; cw < colWords; cw++ { // 64-transfer band
			for i := range blk {
				blk[i] = band[i*colWords+cw]
			}
			transpose64(&blk)
			out := rows[64*cw:][:64]
			for j := range out {
				out[j][w] = blk[j]
			}
		}
	}
}
