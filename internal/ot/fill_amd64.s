//go:build amd64 && !purego

#include "textflag.h"

// The fill kernels of the VAES tiers (fill.go): the ZMM forms use
// AVX-512 F, the YMM forms AVX2 and 256-bit VAES. No instruction
// branches on, or addresses memory by, a seed, a row or a choice bit:
// control flow and addresses depend only on the chunk's size.

// swapMask holds the masks of transpose64's six swap stages, shift 32
// down to 1, each repeated over 32 bytes.
DATA swapMask<>+0(SB)/8, $0x00000000ffffffff
DATA swapMask<>+8(SB)/8, $0x00000000ffffffff
DATA swapMask<>+16(SB)/8, $0x00000000ffffffff
DATA swapMask<>+24(SB)/8, $0x00000000ffffffff
DATA swapMask<>+32(SB)/8, $0x0000ffff0000ffff
DATA swapMask<>+40(SB)/8, $0x0000ffff0000ffff
DATA swapMask<>+48(SB)/8, $0x0000ffff0000ffff
DATA swapMask<>+56(SB)/8, $0x0000ffff0000ffff
DATA swapMask<>+64(SB)/8, $0x00ff00ff00ff00ff
DATA swapMask<>+72(SB)/8, $0x00ff00ff00ff00ff
DATA swapMask<>+80(SB)/8, $0x00ff00ff00ff00ff
DATA swapMask<>+88(SB)/8, $0x00ff00ff00ff00ff
DATA swapMask<>+96(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA swapMask<>+104(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA swapMask<>+112(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA swapMask<>+120(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA swapMask<>+128(SB)/8, $0x3333333333333333
DATA swapMask<>+136(SB)/8, $0x3333333333333333
DATA swapMask<>+144(SB)/8, $0x3333333333333333
DATA swapMask<>+152(SB)/8, $0x3333333333333333
DATA swapMask<>+160(SB)/8, $0x5555555555555555
DATA swapMask<>+168(SB)/8, $0x5555555555555555
DATA swapMask<>+176(SB)/8, $0x5555555555555555
DATA swapMask<>+184(SB)/8, $0x5555555555555555
GLOBL swapMask<>(SB), (NOPTR+RODATA), $192

// --- column transpose ---
//
// transposeColumns, lane-parallel: one load takes L consecutive words of
// a column (L = 8 for ZMM, 4 for YMM), so lane l of every register
// belongs to the 64×64 block of transfer band cw+l, and the L blocks go
// through transpose64's six swap stages side by side. A group of L
// bands is done in two passes per 64-column half of the row (a band of
// the output row, w = 0 or 1), as in transpose64:
//
//   - pass 1, for k < 8: load column words k, k+8, … k+56 of the half,
//     run the stages of shift 32, 16 and 8, and park the eight
//     registers in the frame (slot k+8m holds word k+8m);
//   - pass 2, for k = 0, 8, … 56: load slots k … k+7 of both halves,
//     run the stages of shift 4, 2 and 1, and store the rows.
//
// After pass 2, lane l of the register for word k+j of half w is word w
// of row 64(cw+l)+k+j. Interleaving the two halves' registers a quadword
// at a time gives whole 16-byte rows, and a transpose of 128-bit
// elements lines up each band's consecutive rows for full-width stores.
// A chunk whose word count is not a multiple of L ends with one more
// group stepped back to end at the last word: it redoes up to L-1 bands,
// storing the same rows again. The Go wrapper sends chunks of fewer than
// L words to the Go code.
//
// Register roles: SI the columns, DI the rows, DX the words per column,
// CX the group's first band, R13 the column stride S (8·colWords bytes),
// R9 = 8S and R10 = 24S (eight columns apart, 24 apart), R8 and R11 the
// current loads or stores, BX the current frame slot, AX a loop count.

// ZSWAP is one swap step of shift J and mask M between words LO and HI
// (swapBits): LO keeps its bits under M and takes HI<<J elsewhere, HI
// keeps its bits off M and takes LO>>J under it.
#define ZSWAP(J, M, LO, HI) \
	VPSRLQ     $J, LO, Z30; \
	VPSLLQ     $J, HI, Z31; \
	VPTERNLOGQ $0xe4, M, Z31, LO; \
	VPTERNLOGQ $0xd8, M, Z30, HI

// ZSTAGES runs three swap stages of shifts JA > JB > JC over the words
// in X0 … X7, partners JA, JB and JC registers apart as in transpose64.
#define ZSTAGES(JA, MA, JB, MB, JC, MC, X0, X1, X2, X3, X4, X5, X6, X7) \
	ZSWAP(JA, MA, X0, X4); \
	ZSWAP(JA, MA, X1, X5); \
	ZSWAP(JA, MA, X2, X6); \
	ZSWAP(JA, MA, X3, X7); \
	ZSWAP(JB, MB, X0, X2); \
	ZSWAP(JB, MB, X1, X3); \
	ZSWAP(JB, MB, X4, X6); \
	ZSWAP(JB, MB, X5, X7); \
	ZSWAP(JC, MC, X0, X1); \
	ZSWAP(JC, MC, X2, X3); \
	ZSWAP(JC, MC, X4, X5); \
	ZSWAP(JC, MC, X6, X7)

// ZLOADCOLS loads column words k, k+8, … k+56 of a half into Z0 … Z7:
// column k's word at R8, the others 8S apart.
#define ZLOADCOLS \
	VMOVDQU64 (R8), Z0; \
	VMOVDQU64 (R8)(R9*1), Z1; \
	VMOVDQU64 (R8)(R9*2), Z2; \
	VMOVDQU64 (R8)(R10*1), Z3; \
	LEAQ      (R8)(R9*4), R11; \
	VMOVDQU64 (R11), Z4; \
	VMOVDQU64 (R11)(R9*1), Z5; \
	VMOVDQU64 (R11)(R9*2), Z6; \
	VMOVDQU64 (R11)(R10*1), Z7

// ZADDWIRE adds the sender's masked column bytes into Z0 … Z7 (Q = PRG
// ^ s·u): the words of column k's at R12, the others 8·colBytes (DI)
// apart (DX = 24·colBytes), each ANDed with its column's mask of s (at
// SI, 64 bytes apart) before the XOR.
#define ZADDWIRE \
	VPBROADCASTQ 0(SI), Z8; \
	VPBROADCASTQ 64(SI), Z9; \
	VPBROADCASTQ 128(SI), Z10; \
	VPBROADCASTQ 192(SI), Z11; \
	VPBROADCASTQ 256(SI), Z12; \
	VPBROADCASTQ 320(SI), Z13; \
	VPBROADCASTQ 384(SI), Z14; \
	VPBROADCASTQ 448(SI), Z15; \
	VPTERNLOGQ   $0x78, (R12), Z8, Z0; \
	VPTERNLOGQ   $0x78, (R12)(DI*1), Z9, Z1; \
	VPTERNLOGQ   $0x78, (R12)(DI*2), Z10, Z2; \
	VPTERNLOGQ   $0x78, (R12)(DX*1), Z11, Z3; \
	LEAQ         (R12)(DI*4), R11; \
	VPTERNLOGQ   $0x78, (R11), Z12, Z4; \
	VPTERNLOGQ   $0x78, (R11)(DI*1), Z13, Z5; \
	VPTERNLOGQ   $0x78, (R11)(DI*2), Z14, Z6; \
	VPTERNLOGQ   $0x78, (R11)(DX*1), Z15, Z7

// ZPARK runs pass 1's stages on Z0 … Z7 and parks them: slot k+8m at
// BX + 512m.
#define ZPARK \
	ZSTAGES(32, Z24, 16, Z25, 8, Z26, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7); \
	VMOVDQU64 Z0, 0(BX); \
	VMOVDQU64 Z1, 512(BX); \
	VMOVDQU64 Z2, 1024(BX); \
	VMOVDQU64 Z3, 1536(BX); \
	VMOVDQU64 Z4, 2048(BX); \
	VMOVDQU64 Z5, 2560(BX); \
	VMOVDQU64 Z6, 3072(BX); \
	VMOVDQU64 Z7, 3584(BX)

// ZPASS1 runs pass 1 over the half whose column k = 0 starts at R8,
// parking slot k+8m at BX + 64k + 512m.
#define ZPASS1(loop) \
	MOVQ $8, AX; \
loop: \
	ZLOADCOLS; \
	ZPARK; \
	ADDQ R13, R8; \
	ADDQ $64, BX; \
	DECQ AX; \
	JNZ  loop

// ZPASS1ADD is ZPASS1 with ZADDWIRE.
#define ZPASS1ADD(loop) \
	MOVQ $8, AX; \
loop: \
	ZLOADCOLS; \
	ZADDWIRE; \
	ZPARK; \
	ADDQ R13, R8; \
	ADDQ colBytes+32(FP), R12; \
	ADDQ $8, SI; \
	ADDQ $64, BX; \
	DECQ AX; \
	JNZ  loop

// ZT4X4 transposes the 4×4 matrix of 128-bit elements in A, B, C, D
// (row i in the i-th register) in place; Z0 … Z3 are scratch.
#define ZT4X4(A, B, C, D) \
	VSHUFI64X2 $0x44, B, A, Z0; \
	VSHUFI64X2 $0xee, B, A, Z1; \
	VSHUFI64X2 $0x44, D, C, Z2; \
	VSHUFI64X2 $0xee, D, C, Z3; \
	VSHUFI64X2 $0x88, Z2, Z0, A; \
	VSHUFI64X2 $0xdd, Z2, Z0, B; \
	VSHUFI64X2 $0x88, Z3, Z1, C; \
	VSHUFI64X2 $0xdd, Z3, Z1, D

// ZROWS stores rows k+j … k+j+3 of all eight bands, from the words of
// half 0 in A0 … A3 and of half 1 in B0 … B3 (j = off/16). Band l's
// rows start at R8 + 1024l + off.
#define ZROWS(A0, A1, A2, A3, B0, B1, B2, B3, off) \
	VPUNPCKLQDQ B0, A0, Z16; \
	VPUNPCKLQDQ B1, A1, Z17; \
	VPUNPCKLQDQ B2, A2, Z18; \
	VPUNPCKLQDQ B3, A3, Z19; \
	VPUNPCKHQDQ B0, A0, Z20; \
	VPUNPCKHQDQ B1, A1, Z21; \
	VPUNPCKHQDQ B2, A2, Z22; \
	VPUNPCKHQDQ B3, A3, Z23; \
	ZT4X4(Z16, Z17, Z18, Z19); \
	VMOVDQU64   Z16, off(R8); \
	VMOVDQU64   Z17, off+2048(R8); \
	VMOVDQU64   Z18, off+4096(R8); \
	VMOVDQU64   Z19, off+6144(R8); \
	ZT4X4(Z20, Z21, Z22, Z23); \
	VMOVDQU64   Z20, off+1024(R8); \
	VMOVDQU64   Z21, off+3072(R8); \
	VMOVDQU64   Z22, off+5120(R8); \
	VMOVDQU64   Z23, off+7168(R8)

// ADDSETUP points R12 at the wire word of column 0 at band CX, SI at
// the mask of column moff/8, DI at 8·colBytes and DX at 24·colBytes, for
// ZADDWIRE and YADDWIRE; half 1 then steps R12 on by 64 columns.
#define ADDSETUP(moff) \
	MOVQ colBytes+32(FP), DI; \
	SHLQ $3, DI; \
	LEAQ (DI)(DI*2), DX; \
	MOVQ wire+24(FP), R12; \
	LEAQ (R12)(CX*8), R12; \
	MOVQ masks+40(FP), SI; \
	ADDQ $moff, SI

// func transposeZMM(rows *row, cols *uint64, colWords int, wire *byte, colBytes int, masks *uint64)
//
// With masks set, pass 1 first adds the sender's masked columns
// (ZADDWIRE); SI, DI and DX then serve it and are reloaded after. The
// frame holds pass 1's slots: half 0 at 0(SP), half 1 at 4096(SP).
TEXT ·transposeZMM(SB), 0, $8192-48
	MOVQ         rows+0(FP), DI
	MOVQ         cols+8(FP), SI
	MOVQ         colWords+16(FP), DX
	MOVQ         DX, R13
	SHLQ         $3, R13
	MOVQ         DX, R9
	SHLQ         $6, R9
	LEAQ         (R9)(R9*2), R10
	VPBROADCASTQ swapMask<>+0(SB), Z24
	VPBROADCASTQ swapMask<>+32(SB), Z25
	VPBROADCASTQ swapMask<>+64(SB), Z26
	VPBROADCASTQ swapMask<>+96(SB), Z27
	VPBROADCASTQ swapMask<>+128(SB), Z28
	VPBROADCASTQ swapMask<>+160(SB), Z29
	XORQ         CX, CX

zgroup:
	CMPQ masks+40(FP), $0
	JNE  zgroupAdd
	LEAQ (SI)(CX*8), R8
	LEAQ 0(SP), BX
	ZPASS1(zpass1lo)
	LEAQ (SI)(CX*8), R8
	LEAQ (R8)(R9*8), R8
	LEAQ 4096(SP), BX
	ZPASS1(zpass1hi)
	JMP  zpass2start

zgroupAdd:
	LEAQ (SI)(CX*8), R8
	LEAQ 0(SP), BX
	ADDSETUP(0)
	ZPASS1ADD(zpass1addlo)
	MOVQ cols+8(FP), R8
	LEAQ (R8)(CX*8), R8
	LEAQ (R8)(R9*8), R8
	LEAQ 4096(SP), BX
	ADDSETUP(512)
	LEAQ (R12)(DI*8), R12
	ZPASS1ADD(zpass1addhi)
	MOVQ rows+0(FP), DI
	MOVQ cols+8(FP), SI
	MOVQ colWords+16(FP), DX

zpass2start:
	LEAQ 0(SP), BX
	MOVQ CX, R8
	SHLQ $10, R8
	ADDQ DI, R8
	MOVQ $8, AX

zpass2:
	VMOVDQU64 0(BX), Z0
	VMOVDQU64 64(BX), Z1
	VMOVDQU64 128(BX), Z2
	VMOVDQU64 192(BX), Z3
	VMOVDQU64 256(BX), Z4
	VMOVDQU64 320(BX), Z5
	VMOVDQU64 384(BX), Z6
	VMOVDQU64 448(BX), Z7
	VMOVDQU64 4096(BX), Z8
	VMOVDQU64 4160(BX), Z9
	VMOVDQU64 4224(BX), Z10
	VMOVDQU64 4288(BX), Z11
	VMOVDQU64 4352(BX), Z12
	VMOVDQU64 4416(BX), Z13
	VMOVDQU64 4480(BX), Z14
	VMOVDQU64 4544(BX), Z15
	ZSTAGES(4, Z27, 2, Z28, 1, Z29, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	ZSTAGES(4, Z27, 2, Z28, 1, Z29, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	ZROWS(Z0, Z1, Z2, Z3, Z8, Z9, Z10, Z11, 0)
	ZROWS(Z4, Z5, Z6, Z7, Z12, Z13, Z14, Z15, 64)
	ADDQ      $512, BX
	ADDQ      $128, R8
	DECQ      AX
	JNZ       zpass2

	ADDQ $8, CX
	CMPQ CX, DX
	JEQ  zdone
	LEAQ -8(DX), AX
	CMPQ CX, AX
	JLE  zgroup
	MOVQ AX, CX
	JMP  zgroup

zdone:
	VZEROUPPER
	RET

// YSWAP is ZSWAP in AVX2, as in swapBits; Y15 is scratch.
#define YSWAP(J, M, LO, HI) \
	VPSRLQ $J, LO, Y15; \
	VPXOR  HI, Y15, Y15; \
	VPAND  M, Y15, Y15; \
	VPXOR  Y15, HI, HI; \
	VPSLLQ $J, Y15, Y15; \
	VPXOR  Y15, LO, LO

#define YSTAGES(JA, JB, JC) \
	YSWAP(JA, Y12, Y0, Y4); \
	YSWAP(JA, Y12, Y1, Y5); \
	YSWAP(JA, Y12, Y2, Y6); \
	YSWAP(JA, Y12, Y3, Y7); \
	YSWAP(JB, Y13, Y0, Y2); \
	YSWAP(JB, Y13, Y1, Y3); \
	YSWAP(JB, Y13, Y4, Y6); \
	YSWAP(JB, Y13, Y5, Y7); \
	YSWAP(JC, Y14, Y0, Y1); \
	YSWAP(JC, Y14, Y2, Y3); \
	YSWAP(JC, Y14, Y4, Y5); \
	YSWAP(JC, Y14, Y6, Y7)

// YMASKS loads the masks of three stages, from moff on, into Y12 … Y14.
#define YMASKS(moff) \
	VMOVDQU swapMask<>+moff(SB), Y12; \
	VMOVDQU swapMask<>+moff+32(SB), Y13; \
	VMOVDQU swapMask<>+moff+64(SB), Y14

// YLOADCOLS is ZLOADCOLS into Y0 … Y7.
#define YLOADCOLS \
	VMOVDQU (R8), Y0; \
	VMOVDQU (R8)(R9*1), Y1; \
	VMOVDQU (R8)(R9*2), Y2; \
	VMOVDQU (R8)(R10*1), Y3; \
	LEAQ    (R8)(R9*4), R11; \
	VMOVDQU (R11), Y4; \
	VMOVDQU (R11)(R9*1), Y5; \
	VMOVDQU (R11)(R9*2), Y6; \
	VMOVDQU (R11)(R10*1), Y7

// YADDONE adds the masked wire words at waddr, under the mask at
// moff(SI), into X; T is scratch.
#define YADDONE(moff, waddr, T, X) \
	VPBROADCASTQ moff(SI), T; \
	VPAND        waddr, T, T; \
	VPXOR        T, X, X

// YADDWIRE is ZADDWIRE into Y0 … Y7.
#define YADDWIRE \
	YADDONE(0, (R12), Y8, Y0); \
	YADDONE(64, (R12)(DI*1), Y9, Y1); \
	YADDONE(128, (R12)(DI*2), Y10, Y2); \
	YADDONE(192, (R12)(DX*1), Y11, Y3); \
	LEAQ (R12)(DI*4), R11; \
	YADDONE(256, (R11), Y8, Y4); \
	YADDONE(320, (R11)(DI*1), Y9, Y5); \
	YADDONE(384, (R11)(DI*2), Y10, Y6); \
	YADDONE(448, (R11)(DX*1), Y11, Y7)

// YPARK is ZPARK on four lanes: slot k+8m at BX + 256m.
#define YPARK \
	YSTAGES(32, 16, 8); \
	VMOVDQU Y0, 0(BX); \
	VMOVDQU Y1, 256(BX); \
	VMOVDQU Y2, 512(BX); \
	VMOVDQU Y3, 768(BX); \
	VMOVDQU Y4, 1024(BX); \
	VMOVDQU Y5, 1280(BX); \
	VMOVDQU Y6, 1536(BX); \
	VMOVDQU Y7, 1792(BX)

// YPASS1 is ZPASS1 on four lanes: slot k+8m at BX + 32k + 256m.
#define YPASS1(loop) \
	MOVQ $8, AX; \
loop: \
	YLOADCOLS; \
	YPARK; \
	ADDQ R13, R8; \
	ADDQ $32, BX; \
	DECQ AX; \
	JNZ  loop

// YPASS1ADD is YPASS1 with YADDWIRE.
#define YPASS1ADD(loop) \
	MOVQ $8, AX; \
loop: \
	YLOADCOLS; \
	YADDWIRE; \
	YPARK; \
	ADDQ R13, R8; \
	ADDQ colBytes+32(FP), R12; \
	ADDQ $8, SI; \
	ADDQ $32, BX; \
	DECQ AX; \
	JNZ  loop

// YROWS stores rows k+j and k+j+1 of all four bands: half 0's words
// from slots soff and soff+32 of BX, half 1's in BJ and BJ1 (j =
// roff/16). Band l's rows start at R8 + 1024l + roff.
#define YROWS(soff, roff, BJ, BJ1) \
	VMOVDQU     soff(BX), Y8; \
	VMOVDQU     soff+32(BX), Y9; \
	VPUNPCKLQDQ BJ, Y8, Y10; \
	VPUNPCKHQDQ BJ, Y8, Y11; \
	VPUNPCKLQDQ BJ1, Y9, Y12; \
	VPUNPCKHQDQ BJ1, Y9, Y13; \
	VPERM2I128  $0x20, Y12, Y10, Y14; \
	VPERM2I128  $0x31, Y12, Y10, Y15; \
	VMOVDQU     Y14, roff(R8); \
	VMOVDQU     Y15, roff+2048(R8); \
	VPERM2I128  $0x20, Y13, Y11, Y14; \
	VPERM2I128  $0x31, Y13, Y11, Y15; \
	VMOVDQU     Y14, roff+1024(R8); \
	VMOVDQU     Y15, roff+3072(R8)

// func transposeYMM(rows *row, cols *uint64, colWords int, wire *byte, colBytes int, masks *uint64)
//
// Half 0's slots are at 0(SP), half 1's at 2048(SP). Sixteen registers
// do not hold both halves' words, so pass 2 parks half 0's back in its
// slots and reads them again as it stores the rows.
TEXT ·transposeYMM(SB), 0, $4096-48
	MOVQ rows+0(FP), DI
	MOVQ cols+8(FP), SI
	MOVQ colWords+16(FP), DX
	MOVQ DX, R13
	SHLQ $3, R13
	MOVQ DX, R9
	SHLQ $6, R9
	LEAQ (R9)(R9*2), R10
	XORQ CX, CX

ygroup:
	YMASKS(0)
	CMPQ masks+40(FP), $0
	JNE  ygroupAdd
	LEAQ (SI)(CX*8), R8
	LEAQ 0(SP), BX
	YPASS1(ypass1lo)
	LEAQ (SI)(CX*8), R8
	LEAQ (R8)(R9*8), R8
	LEAQ 2048(SP), BX
	YPASS1(ypass1hi)
	JMP  ypass2start

ygroupAdd:
	LEAQ (SI)(CX*8), R8
	LEAQ 0(SP), BX
	ADDSETUP(0)
	YPASS1ADD(ypass1addlo)
	MOVQ cols+8(FP), R8
	LEAQ (R8)(CX*8), R8
	LEAQ (R8)(R9*8), R8
	LEAQ 2048(SP), BX
	ADDSETUP(512)
	LEAQ (R12)(DI*8), R12
	YPASS1ADD(ypass1addhi)
	MOVQ rows+0(FP), DI
	MOVQ cols+8(FP), SI
	MOVQ colWords+16(FP), DX

ypass2start:
	LEAQ 0(SP), BX
	MOVQ CX, R8
	SHLQ $10, R8
	ADDQ DI, R8
	MOVQ $8, AX

ypass2:
	YMASKS(96)
	VMOVDQU 0(BX), Y0
	VMOVDQU 32(BX), Y1
	VMOVDQU 64(BX), Y2
	VMOVDQU 96(BX), Y3
	VMOVDQU 128(BX), Y4
	VMOVDQU 160(BX), Y5
	VMOVDQU 192(BX), Y6
	VMOVDQU 224(BX), Y7
	YSTAGES(4, 2, 1)
	VMOVDQU Y0, 0(BX)
	VMOVDQU Y1, 32(BX)
	VMOVDQU Y2, 64(BX)
	VMOVDQU Y3, 96(BX)
	VMOVDQU Y4, 128(BX)
	VMOVDQU Y5, 160(BX)
	VMOVDQU Y6, 192(BX)
	VMOVDQU Y7, 224(BX)
	VMOVDQU 2048(BX), Y0
	VMOVDQU 2080(BX), Y1
	VMOVDQU 2112(BX), Y2
	VMOVDQU 2144(BX), Y3
	VMOVDQU 2176(BX), Y4
	VMOVDQU 2208(BX), Y5
	VMOVDQU 2240(BX), Y6
	VMOVDQU 2272(BX), Y7
	YSTAGES(4, 2, 1)
	YROWS(0, 0, Y0, Y1)
	YROWS(64, 32, Y2, Y3)
	YROWS(128, 64, Y4, Y5)
	YROWS(192, 96, Y6, Y7)
	ADDQ    $256, BX
	ADDQ    $128, R8
	DECQ    AX
	JNZ     ypass2

	ADDQ $4, CX
	CMPQ CX, DX
	JEQ  ydone
	LEAQ -4(DX), AX
	CMPQ CX, AX
	JLE  ygroup
	MOVQ AX, CX
	JMP  ygroup

ydone:
	VZEROUPPER
	RET

// --- AES under a fixed key: the row hash and the column PRG ---
//
// Both run AES-128 under round keys that are fixed for the call (a
// Cipher's, from aes128), so the ZMM hashes broadcast all eleven into
// Z16 … Z26 once and keep eight registers — 32 blocks — in flight; the
// YMM forms (the hashes of the vaes tier, the column PRG of both) broadcast
// each round's key into Y8 as they reach it and keep eight registers, 16
// blocks, in flight.

// rowTweak and pairTweak are added to a broadcast t to give each lane's
// block its tweak: t+i in the low quadword of block i of a row register,
// t+i in both blocks of row i of a pair register.
DATA rowTweak<>+0(SB)/8, $0
DATA rowTweak<>+8(SB)/8, $0
DATA rowTweak<>+16(SB)/8, $1
DATA rowTweak<>+24(SB)/8, $0
DATA rowTweak<>+32(SB)/8, $2
DATA rowTweak<>+40(SB)/8, $0
DATA rowTweak<>+48(SB)/8, $3
DATA rowTweak<>+56(SB)/8, $0
GLOBL rowTweak<>(SB), (NOPTR+RODATA), $64

DATA pairTweak<>+0(SB)/8, $0
DATA pairTweak<>+8(SB)/8, $0
DATA pairTweak<>+16(SB)/8, $0
DATA pairTweak<>+24(SB)/8, $0
DATA pairTweak<>+32(SB)/8, $1
DATA pairTweak<>+40(SB)/8, $0
DATA pairTweak<>+48(SB)/8, $1
DATA pairTweak<>+56(SB)/8, $0
GLOBL pairTweak<>(SB), (NOPTR+RODATA), $64

// ZROUNDKEYS broadcasts the eleven round keys at AX into Z16 … Z26.
#define ZROUNDKEYS \
	VBROADCASTI32X4 0(AX), Z16; \
	VBROADCASTI32X4 16(AX), Z17; \
	VBROADCASTI32X4 32(AX), Z18; \
	VBROADCASTI32X4 48(AX), Z19; \
	VBROADCASTI32X4 64(AX), Z20; \
	VBROADCASTI32X4 80(AX), Z21; \
	VBROADCASTI32X4 96(AX), Z22; \
	VBROADCASTI32X4 112(AX), Z23; \
	VBROADCASTI32X4 128(AX), Z24; \
	VBROADCASTI32X4 144(AX), Z25; \
	VBROADCASTI32X4 160(AX), Z26

// ZENC8 runs one round, ENC under K, on Z0 … Z7.
#define ZENC8(ENC, K) \
	ENC K, Z0, Z0; \
	ENC K, Z1, Z1; \
	ENC K, Z2, Z2; \
	ENC K, Z3, Z3; \
	ENC K, Z4, Z4; \
	ENC K, Z5, Z5; \
	ENC K, Z6, Z6; \
	ENC K, Z7, Z7

// ZAES8 runs rounds 1 … 10 on Z0 … Z7 (the caller added round key 0).
#define ZAES8 \
	ZENC8(VAESENC, Z17); \
	ZENC8(VAESENC, Z18); \
	ZENC8(VAESENC, Z19); \
	ZENC8(VAESENC, Z20); \
	ZENC8(VAESENC, Z21); \
	ZENC8(VAESENC, Z22); \
	ZENC8(VAESENC, Z23); \
	ZENC8(VAESENC, Z24); \
	ZENC8(VAESENC, Z25); \
	ZENC8(VAESENCLAST, Z26)

// ZAES1 is ZAES8 on R alone.
#define ZAES1(R) \
	VAESENC     Z17, R, R; \
	VAESENC     Z18, R, R; \
	VAESENC     Z19, R, R; \
	VAESENC     Z20, R, R; \
	VAESENC     Z21, R, R; \
	VAESENC     Z22, R, R; \
	VAESENC     Z23, R, R; \
	VAESENC     Z24, R, R; \
	VAESENC     Z25, R, R; \
	VAESENCLAST Z26, R, R

// ZDOUBLE turns the rows in X into hash inputs 2r ^ tweak in place: each
// 128-bit row shifted left by one, its low quadword's top bit carried
// into the high one, XORed with the tweaks in Z27, which then step on by
// Z28. Z29 is scratch.
#define ZDOUBLE(X) \
	VPSRLQ     $63, X, Z29; \
	VPSLLDQ    $8, Z29, Z29; \
	VPSLLQ     $1, X, X; \
	VPTERNLOGQ $0x96, Z27, Z29, X; \
	VPADDQ     Z28, Z27, Z27

// ZTWEAKS sets Z27 to t (in CX) broadcast to each block's low quadword
// plus the pattern at pat, and Z28 to step in each low quadword. K1 =
// 0x55 picks the low quadwords.
#define ZTWEAKS(pat, step) \
	MOVL           $0x55, R8; \
	KMOVW          R8, K1; \
	VPBROADCASTQ.Z CX, K1, Z27; \
	VPADDQ         pat<>(SB), Z27, Z27; \
	MOVQ           $step, R8; \
	VPBROADCASTQ.Z R8, K1, Z28

// func hashRowsZMM(rk *[11]aes128.Block, dst *label.L, rows *row, n int, t uint64)
//
// Eight registers of four rows per iteration: the inputs x are kept in
// Z8 … Z15 for the feed-forward. One register of four follows, then the
// last one to three rows under a mask K2 of their quadwords.
TEXT ·hashRowsZMM(SB), NOSPLIT, $0-40
	MOVQ rk+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ rows+16(FP), SI
	MOVQ n+24(FP), DX
	MOVQ t+32(FP), CX
	ZROUNDKEYS
	ZTWEAKS(rowTweak, 4)

hrz32:
	CMPQ      DX, $32
	JLT       hrz4
	VMOVDQU64 0(SI), Z8
	VMOVDQU64 64(SI), Z9
	VMOVDQU64 128(SI), Z10
	VMOVDQU64 192(SI), Z11
	VMOVDQU64 256(SI), Z12
	VMOVDQU64 320(SI), Z13
	VMOVDQU64 384(SI), Z14
	VMOVDQU64 448(SI), Z15
	ZDOUBLE(Z8)
	ZDOUBLE(Z9)
	ZDOUBLE(Z10)
	ZDOUBLE(Z11)
	ZDOUBLE(Z12)
	ZDOUBLE(Z13)
	ZDOUBLE(Z14)
	ZDOUBLE(Z15)
	VPXORQ    Z16, Z8, Z0
	VPXORQ    Z16, Z9, Z1
	VPXORQ    Z16, Z10, Z2
	VPXORQ    Z16, Z11, Z3
	VPXORQ    Z16, Z12, Z4
	VPXORQ    Z16, Z13, Z5
	VPXORQ    Z16, Z14, Z6
	VPXORQ    Z16, Z15, Z7
	ZAES8
	VPXORQ    Z8, Z0, Z0
	VPXORQ    Z9, Z1, Z1
	VPXORQ    Z10, Z2, Z2
	VPXORQ    Z11, Z3, Z3
	VPXORQ    Z12, Z4, Z4
	VPXORQ    Z13, Z5, Z5
	VPXORQ    Z14, Z6, Z6
	VPXORQ    Z15, Z7, Z7
	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	VMOVDQU64 Z4, 256(DI)
	VMOVDQU64 Z5, 320(DI)
	VMOVDQU64 Z6, 384(DI)
	VMOVDQU64 Z7, 448(DI)
	ADDQ      $512, SI
	ADDQ      $512, DI
	SUBQ      $32, DX
	JMP       hrz32

hrz4:
	CMPQ      DX, $4
	JLT       hrzTail
	VMOVDQU64 0(SI), Z8
	ZDOUBLE(Z8)
	VPXORQ    Z16, Z8, Z0
	ZAES1(Z0)
	VPXORQ    Z8, Z0, Z0
	VMOVDQU64 Z0, 0(DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $4, DX
	JMP       hrz4

hrzTail:
	TESTQ       DX, DX
	JEQ         hrzDone
	LEAQ        (DX)(DX*1), CX
	MOVL        $1, R8
	SHLL        CX, R8
	DECL        R8
	KMOVW       R8, K2
	VMOVDQU64.Z 0(SI), K2, Z8
	ZDOUBLE(Z8)
	VPXORQ      Z16, Z8, Z0
	ZAES1(Z0)
	VPXORQ      Z8, Z0, Z0
	VMOVDQU64   Z0, K2, 0(DI)

hrzDone:
	VZEROUPPER
	RET

// ZPAIRIN loads the two rows at off(SI) into X as r0 ‖ r0 ‖ r1 ‖ r1 and
// turns them into the hash inputs of both messages of the two transfers:
// the second block of each row also takes 2s from Z30.
#define ZPAIRIN(off, Y, X) \
	VMOVDQU    off(SI), Y; \
	VSHUFI64X2 $0x50, X, X, X; \
	ZDOUBLE(X); \
	VPXORQ     Z30, X, X

// func hashRowPairsZMM(rk *[11]aes128.Block, dst *Pair, rows *row, n int, t uint64, ds *label.L)
//
// Eight registers of two transfers per iteration, then one register of
// two, then a last odd transfer in the low half of one.
TEXT ·hashRowPairsZMM(SB), NOSPLIT, $0-48
	MOVQ              rk+0(FP), AX
	MOVQ              dst+8(FP), DI
	MOVQ              rows+16(FP), SI
	MOVQ              n+24(FP), DX
	MOVQ              t+32(FP), CX
	MOVQ              ds+40(FP), BX
	ZROUNDKEYS
	ZTWEAKS(pairTweak, 2)
	MOVL              $0xf0f0, R8
	KMOVW             R8, K3
	VBROADCASTI32X4.Z (BX), K3, Z30

hpz16:
	CMPQ      DX, $16
	JLT       hpz2
	ZPAIRIN(0, Y8, Z8)
	ZPAIRIN(32, Y9, Z9)
	ZPAIRIN(64, Y10, Z10)
	ZPAIRIN(96, Y11, Z11)
	ZPAIRIN(128, Y12, Z12)
	ZPAIRIN(160, Y13, Z13)
	ZPAIRIN(192, Y14, Z14)
	ZPAIRIN(224, Y15, Z15)
	VPXORQ    Z16, Z8, Z0
	VPXORQ    Z16, Z9, Z1
	VPXORQ    Z16, Z10, Z2
	VPXORQ    Z16, Z11, Z3
	VPXORQ    Z16, Z12, Z4
	VPXORQ    Z16, Z13, Z5
	VPXORQ    Z16, Z14, Z6
	VPXORQ    Z16, Z15, Z7
	ZAES8
	VPXORQ    Z8, Z0, Z0
	VPXORQ    Z9, Z1, Z1
	VPXORQ    Z10, Z2, Z2
	VPXORQ    Z11, Z3, Z3
	VPXORQ    Z12, Z4, Z4
	VPXORQ    Z13, Z5, Z5
	VPXORQ    Z14, Z6, Z6
	VPXORQ    Z15, Z7, Z7
	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	VMOVDQU64 Z4, 256(DI)
	VMOVDQU64 Z5, 320(DI)
	VMOVDQU64 Z6, 384(DI)
	VMOVDQU64 Z7, 448(DI)
	ADDQ      $256, SI
	ADDQ      $512, DI
	SUBQ      $16, DX
	JMP       hpz16

hpz2:
	CMPQ      DX, $2
	JLT       hpzTail
	ZPAIRIN(0, Y8, Z8)
	VPXORQ    Z16, Z8, Z0
	ZAES1(Z0)
	VPXORQ    Z8, Z0, Z0
	VMOVDQU64 Z0, 0(DI)
	ADDQ      $32, SI
	ADDQ      $64, DI
	SUBQ      $2, DX
	JMP       hpz2

hpzTail:
	TESTQ   DX, DX
	JEQ     hpzDone
	ZPAIRIN(0, X8, Z8)
	VPXORQ  Z16, Z8, Z0
	ZAES1(Z0)
	VPXORQ  Z8, Z0, Z0
	VMOVDQU Y0, 0(DI)

hpzDone:
	VZEROUPPER
	RET

// YAES8 runs round key roff(AX) on Y0 … Y7 with ENC, broadcasting it
// into Y8 first.
#define YAES8(ENC, roff) \
	VBROADCASTI128 roff(AX), Y8; \
	ENC            Y8, Y0, Y0; \
	ENC            Y8, Y1, Y1; \
	ENC            Y8, Y2, Y2; \
	ENC            Y8, Y3, Y3; \
	ENC            Y8, Y4, Y4; \
	ENC            Y8, Y5, Y5; \
	ENC            Y8, Y6, Y6; \
	ENC            Y8, Y7, Y7

#define YAES8ROUNDS \
	YAES8(VAESENC, 16); \
	YAES8(VAESENC, 32); \
	YAES8(VAESENC, 48); \
	YAES8(VAESENC, 64); \
	YAES8(VAESENC, 80); \
	YAES8(VAESENC, 96); \
	YAES8(VAESENC, 112); \
	YAES8(VAESENC, 128); \
	YAES8(VAESENC, 144); \
	YAES8(VAESENCLAST, 160)

// YAES1 runs rounds 1 … 10 on R, loading each key into K (Y8 or X8).
#define YAES1(R, K) \
	VBROADCASTI128 16(AX), Y8; \
	VAESENC        K, R, R; \
	VBROADCASTI128 32(AX), Y8; \
	VAESENC        K, R, R; \
	VBROADCASTI128 48(AX), Y8; \
	VAESENC        K, R, R; \
	VBROADCASTI128 64(AX), Y8; \
	VAESENC        K, R, R; \
	VBROADCASTI128 80(AX), Y8; \
	VAESENC        K, R, R; \
	VBROADCASTI128 96(AX), Y8; \
	VAESENC        K, R, R; \
	VBROADCASTI128 112(AX), Y8; \
	VAESENC        K, R, R; \
	VBROADCASTI128 128(AX), Y8; \
	VAESENC        K, R, R; \
	VBROADCASTI128 144(AX), Y8; \
	VAESENC        K, R, R; \
	VBROADCASTI128 160(AX), Y8; \
	VAESENCLAST    K, R, R

// YDOUBLE is ZDOUBLE in AVX2 on X (Y11 or X11), tweaks in T (Y9 or
// X9) stepped by Y10; S (Y12 or X12) is scratch.
#define YDOUBLE(X, T, S) \
	VPSRLQ  $63, X, S; \
	VPSLLDQ $8, S, S; \
	VPSLLQ  $1, X, X; \
	VPXOR   S, X, X; \
	VPXOR   T, X, X; \
	VPADDQ  Y10, Y9, Y9

// YHASHIN forms the inputs x of the two rows at off(SI), parks them at
// off(DI) for the feed-forward and sets D = x ^ round key 0 (in Y8).
#define YHASHIN(off, D) \
	VMOVDQU off(SI), Y11; \
	YDOUBLE(Y11, Y9, Y12); \
	VMOVDQU Y11, off(DI); \
	VPXOR   Y8, Y11, D

// YOUT8 feeds the inputs parked at DI forward into Y0 … Y7 and stores
// them there.
#define YOUT8 \
	VPXOR   0(DI), Y0, Y0; \
	VPXOR   32(DI), Y1, Y1; \
	VPXOR   64(DI), Y2, Y2; \
	VPXOR   96(DI), Y3, Y3; \
	VPXOR   128(DI), Y4, Y4; \
	VPXOR   160(DI), Y5, Y5; \
	VPXOR   192(DI), Y6, Y6; \
	VPXOR   224(DI), Y7, Y7; \
	VMOVDQU Y0, 0(DI); \
	VMOVDQU Y1, 32(DI); \
	VMOVDQU Y2, 64(DI); \
	VMOVDQU Y3, 96(DI); \
	VMOVDQU Y4, 128(DI); \
	VMOVDQU Y5, 160(DI); \
	VMOVDQU Y6, 192(DI); \
	VMOVDQU Y7, 224(DI)

// YTWEAKS sets Y9 to t (in CX) in each block's low quadword plus the
// pattern at pat, and Y10 to step in each low quadword.
#define YTWEAKS(pat, step) \
	VMOVQ   CX, X9; \
	VPERMQ  $0x44, Y9, Y9; \
	VPADDQ  pat<>(SB), Y9, Y9; \
	MOVQ    $step, R8; \
	VMOVQ   R8, X10; \
	VPERMQ  $0x44, Y10, Y10

// func hashRowsYMM(rk *[11]aes128.Block, dst *label.L, rows *row, n int, t uint64)
//
// Eight registers of two rows per iteration, then one of two, then a
// last odd row in an XMM register.
TEXT ·hashRowsYMM(SB), NOSPLIT, $0-40
	MOVQ rk+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ rows+16(FP), SI
	MOVQ n+24(FP), DX
	MOVQ t+32(FP), CX
	YTWEAKS(rowTweak, 2)

hry16:
	CMPQ           DX, $16
	JLT            hry2
	VBROADCASTI128 0(AX), Y8
	YHASHIN(0, Y0)
	YHASHIN(32, Y1)
	YHASHIN(64, Y2)
	YHASHIN(96, Y3)
	YHASHIN(128, Y4)
	YHASHIN(160, Y5)
	YHASHIN(192, Y6)
	YHASHIN(224, Y7)
	YAES8ROUNDS
	YOUT8
	ADDQ           $256, SI
	ADDQ           $256, DI
	SUBQ           $16, DX
	JMP            hry16

hry2:
	CMPQ           DX, $2
	JLT            hryTail
	VBROADCASTI128 0(AX), Y8
	VMOVDQU        0(SI), Y11
	YDOUBLE(Y11, Y9, Y12)
	VPXOR          Y8, Y11, Y0
	YAES1(Y0, Y8)
	VPXOR          Y11, Y0, Y0
	VMOVDQU        Y0, 0(DI)
	ADDQ           $32, SI
	ADDQ           $32, DI
	SUBQ           $2, DX
	JMP            hry2

hryTail:
	TESTQ   DX, DX
	JEQ     hryDone
	VMOVDQU 0(AX), X8
	VMOVDQU 0(SI), X11
	YDOUBLE(X11, X9, X12)
	VPXOR   X8, X11, X0
	YAES1(X0, X8)
	VPXOR   X11, X0, X0
	VMOVDQU X0, 0(DI)

hryDone:
	VZEROUPPER
	RET

// YPAIRIN is YHASHIN for one transfer: the row at soff(SI) as r ‖ r, the
// second block also taking 2s from Y13, parked at doff(DI).
#define YPAIRIN(soff, doff, D) \
	VBROADCASTI128 soff(SI), Y11; \
	YDOUBLE(Y11, Y9, Y12); \
	VPXOR          Y13, Y11, Y11; \
	VMOVDQU        Y11, doff(DI); \
	VPXOR          Y8, Y11, D

// func hashRowPairsYMM(rk *[11]aes128.Block, dst *Pair, rows *row, n int, t uint64, ds *label.L)
//
// Eight registers of one transfer per iteration, then one register at a
// time.
TEXT ·hashRowPairsYMM(SB), NOSPLIT, $0-48
	MOVQ       rk+0(FP), AX
	MOVQ       dst+8(FP), DI
	MOVQ       rows+16(FP), SI
	MOVQ       n+24(FP), DX
	MOVQ       t+32(FP), CX
	MOVQ       ds+40(FP), BX
	YTWEAKS(pairTweak, 1)
	VMOVDQU    (BX), X13
	VPERM2I128 $0x08, Y13, Y13, Y13

hpy8:
	CMPQ           DX, $8
	JLT            hpy1
	VBROADCASTI128 0(AX), Y8
	YPAIRIN(0, 0, Y0)
	YPAIRIN(16, 32, Y1)
	YPAIRIN(32, 64, Y2)
	YPAIRIN(48, 96, Y3)
	YPAIRIN(64, 128, Y4)
	YPAIRIN(80, 160, Y5)
	YPAIRIN(96, 192, Y6)
	YPAIRIN(112, 224, Y7)
	YAES8ROUNDS
	YOUT8
	ADDQ           $128, SI
	ADDQ           $256, DI
	SUBQ           $8, DX
	JMP            hpy8

hpy1:
	TESTQ          DX, DX
	JEQ            hpyDone
	VBROADCASTI128 0(AX), Y8
	YPAIRIN(0, 0, Y0)
	YAES1(Y0, Y8)
	VPXOR          0(DI), Y0, Y0
	VMOVDQU        Y0, 0(DI)
	ADDQ           $16, SI
	ADDQ           $32, DI
	DECQ           DX
	JMP            hpy1

hpyDone:
	VZEROUPPER
	RET

// --- column PRG ---
//
// prgStream.expand, AES-CTR: block b of a call is AES(ctr+b ‖ 0) and
// gives the column words 2b and 2b+1. The counters are built in
// registers (Y9 and Y11, stepped per register), never written to
// memory. A last odd word is the low half of one more block. Both VAES
// tiers run these YMM forms: a ZMM form with 32 blocks in flight
// measured no faster (the column stage is bound by the AES units and
// the stores, not by the register width).

// YCTRIN sets D to the next counter block of Y9 XOR round key 0 (in
// Y8).
#define YCTRIN(D) \
	VPXOR  Y8, Y9, D; \
	VPADDQ Y10, Y9, Y9

// func ctrYMM(rk *[11]aes128.Block, ctr uint64, dst *uint64, words int)
//
// Eight registers, 16 blocks, per iteration; then one register; then the
// last one to three words from one more.
TEXT ·ctrYMM(SB), NOSPLIT, $0-32
	MOVQ rk+0(FP), AX
	MOVQ ctr+8(FP), CX
	MOVQ dst+16(FP), DI
	MOVQ words+24(FP), DX
	YTWEAKS(rowTweak, 2)

cy32:
	CMPQ           DX, $32
	JLT            cy4
	VBROADCASTI128 0(AX), Y8
	YCTRIN(Y0)
	YCTRIN(Y1)
	YCTRIN(Y2)
	YCTRIN(Y3)
	YCTRIN(Y4)
	YCTRIN(Y5)
	YCTRIN(Y6)
	YCTRIN(Y7)
	YAES8ROUNDS
	VMOVDQU        Y0, 0(DI)
	VMOVDQU        Y1, 32(DI)
	VMOVDQU        Y2, 64(DI)
	VMOVDQU        Y3, 96(DI)
	VMOVDQU        Y4, 128(DI)
	VMOVDQU        Y5, 160(DI)
	VMOVDQU        Y6, 192(DI)
	VMOVDQU        Y7, 224(DI)
	ADDQ           $256, DI
	SUBQ           $32, DX
	JMP            cy32

cy4:
	CMPQ           DX, $4
	JLT            cyTail
	VBROADCASTI128 0(AX), Y8
	YCTRIN(Y0)
	YAES1(Y0, Y8)
	VMOVDQU        Y0, 0(DI)
	ADDQ           $32, DI
	SUBQ           $4, DX
	JMP            cy4

cyTail:
	TESTQ          DX, DX
	JEQ            cyDone
	VBROADCASTI128 0(AX), Y8
	YCTRIN(Y0)
	YAES1(Y0, Y8)
	CMPQ           DX, $2
	JLT            cyOne
	VMOVDQU        X0, 0(DI)
	ADDQ           $16, DI
	SUBQ           $2, DX
	VEXTRACTI128   $1, Y0, X0
	TESTQ          DX, DX
	JEQ            cyDone

cyOne:
	VMOVQ X0, 0(DI)

cyDone:
	VZEROUPPER
	RET

// YMROUND runs one round on both streams of ctrMaskYMM: Y0 … Y3 under
// the key at roff(AX), Y4 … Y7 under the one at roff(BX).
#define YMROUND(ENC, roff) \
	VBROADCASTI128 roff(AX), Y8; \
	ENC            Y8, Y0, Y0; \
	ENC            Y8, Y1, Y1; \
	ENC            Y8, Y2, Y2; \
	ENC            Y8, Y3, Y3; \
	VBROADCASTI128 roff(BX), Y12; \
	ENC            Y12, Y4, Y4; \
	ENC            Y12, Y5, Y5; \
	ENC            Y12, Y6, Y6; \
	ENC            Y12, Y7, Y7

// YMROUND1 is YMROUND on Y0 and Y4 alone.
#define YMROUND1(ENC, roff) \
	VBROADCASTI128 roff(AX), Y8; \
	ENC            Y8, Y0, Y0; \
	VBROADCASTI128 roff(BX), Y12; \
	ENC            Y12, Y4, Y4

#define YMAES(ROUND) \
	ROUND(VAESENC, 16); \
	ROUND(VAESENC, 32); \
	ROUND(VAESENC, 48); \
	ROUND(VAESENC, 64); \
	ROUND(VAESENC, 80); \
	ROUND(VAESENC, 96); \
	ROUND(VAESENC, 112); \
	ROUND(VAESENC, 128); \
	ROUND(VAESENC, 144); \
	ROUND(VAESENCLAST, 160)

// YMIN is ZMIN in AVX2: counters Y9 and Y11, round keys 0 in Y8 and
// Y12.
#define YMIN(D0, D1) \
	YCTRIN(D0); \
	VPXOR  Y12, Y11, D1; \
	VPADDQ Y10, Y11, Y11

// YMKEYS0 loads both streams' round key 0 into Y8 and Y12.
#define YMKEYS0 \
	VBROADCASTI128 0(AX), Y8; \
	VBROADCASTI128 0(BX), Y12

// func ctrMaskYMM(rk0, rk1 *[11]aes128.Block, ctr0, ctr1 uint64, t *uint64, u *byte, r *uint64, words int)
//
// Four registers of each stream, 16 blocks, per iteration; then one of
// each; then the last one to three words from one more of each.
TEXT ·ctrMaskYMM(SB), NOSPLIT, $0-64
	MOVQ   rk0+0(FP), AX
	MOVQ   rk1+8(FP), BX
	MOVQ   ctr0+16(FP), CX
	MOVQ   t+32(FP), DI
	MOVQ   u+40(FP), SI
	MOVQ   r+48(FP), R9
	MOVQ   words+56(FP), DX
	YTWEAKS(rowTweak, 2)
	MOVQ   ctr1+24(FP), CX
	VMOVQ  CX, X11
	VPERMQ $0x44, Y11, Y11
	VPADDQ rowTweak<>(SB), Y11, Y11

cmy16:
	CMPQ    DX, $16
	JLT     cmy4
	YMKEYS0
	YMIN(Y0, Y4)
	YMIN(Y1, Y5)
	YMIN(Y2, Y6)
	YMIN(Y3, Y7)
	YMAES(YMROUND)
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VPXOR   Y0, Y4, Y4
	VPXOR   Y1, Y5, Y5
	VPXOR   Y2, Y6, Y6
	VPXOR   Y3, Y7, Y7
	VPXOR   0(R9), Y4, Y4
	VPXOR   32(R9), Y5, Y5
	VPXOR   64(R9), Y6, Y6
	VPXOR   96(R9), Y7, Y7
	VMOVDQU Y4, 0(SI)
	VMOVDQU Y5, 32(SI)
	VMOVDQU Y6, 64(SI)
	VMOVDQU Y7, 96(SI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	ADDQ    $128, R9
	SUBQ    $16, DX
	JMP     cmy16

cmy4:
	CMPQ    DX, $4
	JLT     cmyTail
	YMKEYS0
	YMIN(Y0, Y4)
	YMAES(YMROUND1)
	VMOVDQU Y0, 0(DI)
	VPXOR   Y0, Y4, Y4
	VPXOR   0(R9), Y4, Y4
	VMOVDQU Y4, 0(SI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R9
	SUBQ    $4, DX
	JMP     cmy4

cmyTail:
	TESTQ        DX, DX
	JEQ          cmyDone
	YMKEYS0
	YMIN(Y0, Y4)
	YMAES(YMROUND1)
	CMPQ         DX, $2
	JLT          cmyOne
	VMOVDQU      X0, 0(DI)
	VPXOR        X0, X4, X13
	VPXOR        0(R9), X13, X13
	VMOVDQU      X13, 0(SI)
	ADDQ         $16, DI
	ADDQ         $16, SI
	ADDQ         $16, R9
	SUBQ         $2, DX
	VEXTRACTI128 $1, Y0, X0
	VEXTRACTI128 $1, Y4, X4
	TESTQ        DX, DX
	JEQ          cmyDone

cmyOne:
	VMOVQ X0, 0(DI)
	VMOVQ 0(R9), X13
	VPXOR X0, X4, X4
	VPXOR X13, X4, X4
	VMOVQ X4, 0(SI)

cmyDone:
	VZEROUPPER
	RET
