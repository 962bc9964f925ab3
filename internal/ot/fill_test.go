package ot

import (
	"fmt"
	"math/rand"
	"testing"

	"haac/internal/label"
)

// kernelForms lists the vector forms of the fill kernels this host can
// run: every form up to the live one.
func kernelForms() []fillForm {
	var fs []fillForm
	for f := fillYMM; f <= liveFill; f++ {
		fs = append(fs, f)
	}
	return fs
}

// allForms is kernelForms with the Go code first.
func allForms() []fillForm { return append([]fillForm{fillGo}, kernelForms()...) }

func (f fillForm) String() string {
	return [...]string{"go", "ymm", "zmm"}[f]
}

// kernelColWords straddle the lane counts of both vector forms and the
// chunk's 256 words.
var kernelColWords = []int{1, 2, 7, 8, 9, 17, 256, 257}

// kernelChunks straddle the word, lane and chunk boundaries of the
// chunk cores.
var kernelChunks = []int{1, 63, 64, 65, 127, 128, 129, extChunk - 1, extChunk}

// checkTransposeKernel runs form f's transpose on colWords random
// words per column against the Go code, with and without the sender's
// column addition (on chunks of mc ≤ 64·colWords transfers, checking the
// rows of the chunk), and checks that it writes no row past the chunk.
func checkTransposeKernel(t *testing.T, f fillForm, rng *rand.Rand, colWords, mc int) {
	t.Helper()
	colBytes := (mc + 7) / 8
	cols := make([]uint64, kappa*colWords)
	for i := range cols {
		cols[i] = rng.Uint64()
	}
	want := make([]row, 64*colWords)
	transposeColumnsGo(want, cols, colWords)
	got := make([]row, 64*colWords+64)
	for j := range got {
		got[j] = row{0xdead, 0xbeef}
	}
	did := transposeKernel(f, got, cols, colWords, nil, 0, nil)
	if did != (colWords >= f.lanes()) {
		t.Fatalf("%v transpose ran = %v on %d words per column", f, did, colWords)
	}
	if !did {
		return
	}
	for j := range got {
		if j < len(want) && got[j] != want[j] || j >= len(want) && got[j] != (row{0xdead, 0xbeef}) {
			t.Fatalf("%v, colWords %d: row %d = %x, want the Go code's (or untouched past the chunk)", f, colWords, j, got[j])
		}
	}

	slab := make([]byte, kappa*8*colWords)
	rng.Read(slab)
	wire := slab[:kappa*colBytes]
	s := row{rng.Uint64(), rng.Uint64()}
	q := append([]uint64(nil), cols...)
	addColumns(q, colWords, wire, colBytes, s)
	transposeColumnsGo(want, q, colWords)
	if !transposeKernel(f, got, cols, colWords, wire, colBytes, &s) {
		t.Fatalf("%v transpose with the column addition declined %d words", f, colWords)
	}
	for j := 0; j < mc; j++ {
		if got[j] != want[j] {
			t.Fatalf("%v, %d transfers, adding the wire: row %d = %x, want %x", f, mc, j, got[j], want[j])
		}
	}
}

// checkHashKernels runs form f's row hashes on n random rows at tweak t0
// against the Go code, and checks that they write nothing past the
// chunk.
func checkHashKernels(t *testing.T, f fillForm, rng *rand.Rand, n int, t0 uint64) {
	t.Helper()
	rows := make([]row, n)
	for j := range rows {
		rows[j] = row{rng.Uint64(), rng.Uint64()}
	}
	rows[0] = row{1<<63 | 1, 1 << 63}
	s := row{rng.Uint64(), rng.Uint64() | 1<<63}
	want := make([]label.L, n)
	hashRowsGo(want, rows, t0)
	got := make([]label.L, n+1)
	got[n] = label.L{Lo: 0xdead, Hi: 0xbeef}
	if !hashRowsKernel(f, got[:n], rows, t0) {
		t.Fatalf("%v: row hash declined %d rows", f, n)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%v, %d rows, tweak %d: H(row %d) differs from the Go code", f, n, t0, j)
		}
	}
	wantPairs := make([]Pair, n)
	hashRowPairsGo(wantPairs, rows, s, t0)
	gotPairs := make([]Pair, n+1)
	gotPairs[n] = Pair{M0: label.L{Lo: 0xdead}}
	if !hashRowPairsKernel(f, gotPairs[:n], rows, s, t0) {
		t.Fatalf("%v: pair hash declined %d rows", f, n)
	}
	for j := range wantPairs {
		if gotPairs[j] != wantPairs[j] {
			t.Fatalf("%v, %d rows, tweak %d: pair %d differs from the Go code", f, n, t0, j)
		}
	}
	if got[n] != (label.L{Lo: 0xdead, Hi: 0xbeef}) || gotPairs[n] != (Pair{M0: label.L{Lo: 0xdead}}) {
		t.Fatalf("%v, %d rows: a row hash wrote past the chunk", f, n)
	}
}

// checkExpandKernel runs form f's column PRG for words more words of
// kP against goP's Go code, and checks that it writes no word past them
// and leaves the same counter.
func checkExpandKernel(t *testing.T, f fillForm, kP, goP *prgStream, words int) {
	t.Helper()
	want := make([]uint64, words)
	goP.expandGo(want)
	got := make([]uint64, words+1)
	got[words] = 0xdeadbeef
	if !expandKernel(f, kP, got[:words]) {
		t.Fatalf("%v: expand declined %d words", f, words)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%v: expand(%d) word %d = %#x, want %#x", f, words, k, got[k], want[k])
		}
	}
	if got[words] != 0xdeadbeef || kP.ctr != goP.ctr {
		t.Fatalf("%v: expand(%d) wrote past its words or left the counter at %d, want %d", f, words, kP.ctr, goP.ctr)
	}
}

// checkMaskKernel runs form f's masked columns for a whole receiver
// chunk of mc transfers (two streams per column, kappa columns in
// order) against the Go code, and checks that it writes nothing past
// the columns or the wire slab.
func checkMaskKernel(t *testing.T, f fillForm, rng *rand.Rand, mc int) {
	t.Helper()
	colWords, colBytes := (mc+63)/64, (mc+7)/8
	seed0 := label.L{Lo: rng.Uint64(), Hi: rng.Uint64()}
	seed1 := label.L{Lo: rng.Uint64(), Hi: rng.Uint64()}
	r := make([]uint64, colWords)
	for k := range r {
		r[k] = rng.Uint64()
	}
	var g0, g1, k0, k1 [kappa]prgStream
	for i := range g0 {
		g0[i].init(seed0)
		g1[i].init(seed1)
		k0[i].init(seed0)
		k1[i].init(seed1)
	}
	wantCols := make([]uint64, kappa*colWords)
	wantWire := make([]byte, kappa*colBytes)
	u := make([]uint64, colWords)
	for i := 0; i < kappa; i++ {
		t := wantCols[i*colWords : (i+1)*colWords]
		g0[i].expandGo(t)
		g1[i].expandGo(u)
		for k := range u {
			u[k] ^= t[k] ^ r[k]
		}
		putWords(wantWire[i*colBytes:(i+1)*colBytes], u)
	}
	gotCols := make([]uint64, kappa*colWords+1)
	gotCols[kappa*colWords] = 0xdeadbeef
	slab := make([]byte, kappa*8*colWords+1)
	slab[kappa*8*colWords] = 0xa5
	wire := slab[:kappa*colBytes]
	for i := 0; i < kappa; i++ {
		if !maskColumnKernel(f, &k0[i], &k1[i], gotCols[i*colWords:(i+1)*colWords], wire[i*colBytes:(i+1)*colBytes], r) {
			t.Fatalf("%v: masked columns declined %d transfers", f, mc)
		}
	}
	for k, w := range wantCols {
		if gotCols[k] != w {
			t.Fatalf("%v, %d transfers: column word %d = %#x, want %#x", f, mc, k, gotCols[k], w)
		}
	}
	for k, b := range wantWire {
		if wire[k] != b {
			t.Fatalf("%v, %d transfers: masked byte %d = %#x, want %#x", f, mc, k, wire[k], b)
		}
	}
	if gotCols[kappa*colWords] != 0xdeadbeef || slab[kappa*8*colWords] != 0xa5 {
		t.Fatalf("%v, %d transfers: the masked columns ran past the slab", f, mc)
	}
	if k0[0].ctr != g0[0].ctr || k1[kappa-1].ctr != g1[kappa-1].ctr {
		t.Fatalf("%v, %d transfers: counters %d/%d, want %d/%d", f, mc, k0[0].ctr, k1[kappa-1].ctr, g0[0].ctr, g1[kappa-1].ctr)
	}
}

// TestTransposeKernelsMatchGo runs each vector transpose directly
// against the Go code at every kernelColWords size, and with the
// sender's column addition at every kernelChunks size.
func TestTransposeKernelsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, f := range kernelForms() {
		for _, colWords := range kernelColWords {
			checkTransposeKernel(t, f, rng, colWords, 64*colWords)
		}
		for _, mc := range kernelChunks {
			checkTransposeKernel(t, f, rng, (mc+63)/64, mc)
		}
	}
}

// TestHashKernelsMatchGo runs each vector row hash directly against the
// Go code at every kernelChunks size, at tweaks that carry into and wrap
// the high bits.
func TestHashKernelsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, f := range kernelForms() {
		for _, n := range kernelChunks {
			for _, t0 := range []uint64{0, 5, 1<<64 - 3} {
				checkHashKernels(t, f, rng, n, t0)
			}
		}
	}
}

// TestPRGKernelsMatchGo runs each vector form's column PRG (both run the
// YMM kernel) directly against the Go code: the sender's expand over
// consecutive calls of every kernelColWords size, so the counters must
// carry across odd ones, and the receiver's masked columns at every
// kernelChunks size.
func TestPRGKernelsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, f := range kernelForms() {
		var goP, kP prgStream
		seed := label.L{Lo: rng.Uint64(), Hi: rng.Uint64()}
		goP.init(seed)
		kP.init(seed)
		for _, words := range kernelColWords {
			checkExpandKernel(t, f, &kP, &goP, words)
		}
		for _, mc := range kernelChunks {
			checkMaskKernel(t, f, rng, mc)
		}
	}
}

// FuzzFillKernels runs every kernel form this host has against the Go
// code at fuzzer-chosen chunk sizes up to a chunk, tweaks and data.
func FuzzFillKernels(f *testing.F) {
	f.Add(uint16(1), uint64(0), int64(1))
	f.Add(uint16(65), uint64(1<<64-2), int64(2))
	f.Add(uint16(extChunk), uint64(7), int64(3))
	f.Fuzz(func(t *testing.T, size uint16, t0 uint64, seed int64) {
		mc := int(size)%extChunk + 1
		rng := rand.New(rand.NewSource(seed))
		for _, f := range kernelForms() {
			checkTransposeKernel(t, f, rng, (mc+63)/64, mc)
			checkHashKernels(t, f, rng, mc, t0)
			var goP, kP prgStream
			seed := label.L{Lo: rng.Uint64(), Hi: rng.Uint64()}
			goP.init(seed)
			kP.init(seed)
			checkExpandKernel(t, f, &kP, &goP, (mc+63)/64)
			checkExpandKernel(t, f, &kP, &goP, mc%67)
			checkMaskKernel(t, f, rng, mc)
		}
	})
}

// BenchmarkTransposeColumns times the column transpose per form at
// serve.churn's on-demand 128 transfers and at a fill chunk. ns/ot is per
// transfer.
func BenchmarkTransposeColumns(b *testing.B) {
	for _, f := range allForms() {
		for _, m := range []int{128, extChunk} {
			colWords := (m + 63) / 64
			cols := make([]uint64, kappa*colWords)
			rows := make([]row, 64*colWords)
			b.Run(fmt.Sprintf("%v/m=%d", f, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if !transposeKernel(f, rows, cols, colWords, nil, 0, nil) {
						transposeColumnsGo(rows, cols, colWords)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m), "ns/ot")
			})
		}
	}
}

// BenchmarkHashRows and BenchmarkHashRowPairs time the receiver's and
// the sender's row hash per form, as BenchmarkTransposeColumns.
func BenchmarkHashRows(b *testing.B) {
	for _, f := range allForms() {
		for _, m := range []int{128, extChunk} {
			rows, dst := make([]row, m), make([]label.L, m)
			b.Run(fmt.Sprintf("%v/m=%d", f, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if !hashRowsKernel(f, dst, rows, uint64(i)) {
						hashRowsGo(dst, rows, uint64(i))
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m), "ns/ot")
			})
		}
	}
}

func BenchmarkHashRowPairs(b *testing.B) {
	for _, f := range allForms() {
		for _, m := range []int{128, extChunk} {
			rows, dst := make([]row, m), make([]Pair, m)
			b.Run(fmt.Sprintf("%v/m=%d", f, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if !hashRowPairsKernel(f, dst, rows, row{3, 4}, uint64(i)) {
						hashRowPairsGo(dst, rows, row{3, 4}, uint64(i))
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m), "ns/ot")
			})
		}
	}
}

// BenchmarkPRGExpand times a chunk's column expansion per kernel, as
// BenchmarkTransposeColumns: the sender's kappa columns (send) and the
// receiver's kappa masked columns (mask). There is no zmm row: both
// VAES forms run the ymm kernel.
func BenchmarkPRGExpand(b *testing.B) {
	for _, f := range allForms() {
		if f == fillZMM {
			continue
		}
		for _, m := range []int{128, extChunk} {
			colWords, colBytes := (m+63)/64, (m+7)/8
			var p0, p1 [kappa]prgStream
			for i := range p0 {
				p0[i].init(label.L{Lo: uint64(i)})
				p1[i].init(label.L{Hi: uint64(i)})
			}
			cols, u, r := make([]uint64, kappa*colWords), make([]uint64, colWords), make([]uint64, colWords)
			wire := make([]byte, kappa*8*colWords)[:kappa*colBytes]
			b.Run(fmt.Sprintf("send/%v/m=%d", f, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for c := range p0 {
						if t := cols[c*colWords : (c+1)*colWords]; !expandKernel(f, &p0[c], t) {
							p0[c].expandGo(t)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m), "ns/ot")
			})
			b.Run(fmt.Sprintf("mask/%v/m=%d", f, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for c := range p0 {
						t, w := cols[c*colWords:(c+1)*colWords], wire[c*colBytes:(c+1)*colBytes]
						if !maskColumnKernel(f, &p0[c], &p1[c], t, w, r) {
							p0[c].expandGo(t)
							p1[c].expandGo(u)
							for k := range u {
								u[k] ^= t[k] ^ r[k]
							}
							putWords(w, u)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m), "ns/ot")
			})
		}
	}
}
