//go:build amd64 && !purego

#include "textflag.h"

// The hardware tiers: the AES-NI kernels first, the VAES kernels (two
// gates per call) at the end. The fresh-key kernels never store a key
// schedule: each round key is derived in registers from the previous
// one and fed to AESENC straight away, the software shape of HAAC's
// Half-Gate pipeline (key expansion overlapped with encryption).
//
// Round-key step. FIPS-197 needs t = SubWord(RotWord(w3)) ^ rcon and
// then w0' = w0^t, w1' = w1^w0', w2' = w2^w1', w3' = w3^w2'. PSHUFB
// with rotMask broadcasts RotWord(w3) into all four columns; with equal
// columns ShiftRows is the identity, so AESENCLAST against the
// broadcast round constant yields t in every column — a 1+4 cycle,
// fully pipelined stand-in for the microcoded AESKEYGENASSIST. The two
// shift/XOR pairs build the prefix XOR of the old words. RC is doubled
// after every step (rcon = 1,2,..,0x80) and reloaded with 0x1b for the
// last two.

DATA rotMask<>+0(SB)/8, $0x0c0f0e0d0c0f0e0d
DATA rotMask<>+8(SB)/8, $0x0c0f0e0d0c0f0e0d
GLOBL rotMask<>(SB), (NOPTR+RODATA), $16

DATA rcon01<>+0(SB)/8, $0x0000000100000001
DATA rcon01<>+8(SB)/8, $0x0000000100000001
GLOBL rcon01<>(SB), (NOPTR+RODATA), $16

DATA rcon1b<>+0(SB)/8, $0x0000001b0000001b
DATA rcon1b<>+8(SB)/8, $0x0000001b0000001b
GLOBL rcon1b<>(SB), (NOPTR+RODATA), $16

// LOAD16 reads a 16-byte block as two 8-byte halves. The Go callers
// assemble keys and labels from 64-bit words just before the call; a
// 16-byte load spanning two pending 8-byte stores cannot be
// store-forwarded and would stall every gate until they retire, while
// each half forwards from its own store (or from a wider one).
#define LOAD16(off, base, X) \
	MOVQ   off(base), X; \
	MOVHPS off+8(base), X

#define MASK X14
#define RC   X15

// KEYSTEP advances round key K to the next round in place; T and U are
// scratch.
#define KEYSTEP(K, T, U) \
	MOVO       K, T; \
	PSHUFB     MASK, T; \
	AESENCLAST RC, T; \
	MOVO       K, U; \
	PSLLDQ     $4, U; \
	PXOR       U, K; \
	MOVO       K, U; \
	PSLLDQ     $8, U; \
	PXOR       U, K; \
	PXOR       T, K

// TEN_ROUNDS runs a kernel's round macro ten times, stepping the round
// constant between them: doubled through 0x80, then 0x1b, 0x36.
#define TEN_ROUNDS(ROUND) \
	ROUND(AESENC); \
	PSLLL $1, RC; \
	ROUND(AESENC); \
	PSLLL $1, RC; \
	ROUND(AESENC); \
	PSLLL $1, RC; \
	ROUND(AESENC); \
	PSLLL $1, RC; \
	ROUND(AESENC); \
	PSLLL $1, RC; \
	ROUND(AESENC); \
	PSLLL $1, RC; \
	ROUND(AESENC); \
	PSLLL $1, RC; \
	ROUND(AESENC); \
	MOVOU rcon1b<>(SB), RC; \
	ROUND(AESENC); \
	PSLLL $1, RC; \
	ROUND(AESENCLAST)

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// One fresh key, one block.
#define ROUND1(ENC) \
	KEYSTEP(X0, X2, X3); \
	ENC X0, X1

// func freshKeyEncryptAESNI(key, dst, src *Block)
TEXT ·freshKeyEncryptAESNI(SB), NOSPLIT, $0-24
	MOVQ  key+0(FP), AX
	MOVQ  dst+8(FP), BX
	MOVQ  src+16(FP), CX
	LOAD16(0, AX, X0)
	LOAD16(0, CX, X1)
	MOVOU rotMask<>(SB), MASK
	MOVOU rcon01<>(SB), RC
	PXOR  X0, X1
	TEN_ROUNDS(ROUND1)
	MOVOU X1, (BX)
	RET

// Two fresh keys, one block each (an evaluated AND gate). The two key
// chains are independent, so interleaving them hides the PSHUFB →
// AESENCLAST → PXOR latency of each step behind the other's.
#define ROUND2x1(ENC) \
	KEYSTEP(X0, X4, X5); \
	KEYSTEP(X1, X6, X7); \
	ENC X0, X2; \
	ENC X1, X3

// func freshKeyPairAESNI(keys *[2]Block, dst, src *[2]Block)
TEXT ·freshKeyPairAESNI(SB), NOSPLIT, $0-24
	MOVQ  keys+0(FP), AX
	MOVQ  dst+8(FP), BX
	MOVQ  src+16(FP), CX
	LOAD16(0, AX, X0)
	LOAD16(16, AX, X1)
	LOAD16(0, CX, X2)
	LOAD16(16, CX, X3)
	MOVOU rotMask<>(SB), MASK
	MOVOU rcon01<>(SB), RC
	PXOR  X0, X2
	PXOR  X1, X3
	TEN_ROUNDS(ROUND2x1)
	MOVOU X2, 0(BX)
	MOVOU X3, 16(BX)
	RET

// Two fresh keys, two blocks each (a garbled AND gate): blocks 0,1
// under keys[0], blocks 2,3 under keys[1].
#define ROUND2x2(ENC) \
	KEYSTEP(X0, X6, X7); \
	KEYSTEP(X1, X8, X9); \
	ENC X0, X2; \
	ENC X0, X3; \
	ENC X1, X4; \
	ENC X1, X5

// func freshKeyPair2AESNI(keys *[2]Block, dst, src *[4]Block)
TEXT ·freshKeyPair2AESNI(SB), NOSPLIT, $0-24
	MOVQ  keys+0(FP), AX
	MOVQ  dst+8(FP), BX
	MOVQ  src+16(FP), CX
	LOAD16(0, AX, X0)
	LOAD16(16, AX, X1)
	LOAD16(0, CX, X2)
	LOAD16(16, CX, X3)
	LOAD16(32, CX, X4)
	LOAD16(48, CX, X5)
	MOVOU rotMask<>(SB), MASK
	MOVOU rcon01<>(SB), RC
	PXOR  X0, X2
	PXOR  X0, X3
	PXOR  X1, X4
	PXOR  X1, X5
	TEN_ROUNDS(ROUND2x2)
	MOVOU X2, 0(BX)
	MOVOU X3, 16(BX)
	MOVOU X4, 32(BX)
	MOVOU X5, 48(BX)
	RET

// Fixed schedule, n blocks: the eleven stored round keys are loaded
// into X5..X15 once per call and blocks go through four at a time.
#define ENC4(ENC, K) \
	ENC K, X0; \
	ENC K, X1; \
	ENC K, X2; \
	ENC K, X3

// func encryptBlocksAESNI(rk *[11]Block, dst, src *Block, n int)
TEXT ·encryptBlocksAESNI(SB), NOSPLIT, $0-32
	MOVQ  rk+0(FP), AX
	MOVQ  dst+8(FP), BX
	MOVQ  src+16(FP), CX
	MOVQ  n+24(FP), DX
	MOVOU 0(AX), X5
	MOVOU 16(AX), X6
	MOVOU 32(AX), X7
	MOVOU 48(AX), X8
	MOVOU 64(AX), X9
	MOVOU 80(AX), X10
	MOVOU 96(AX), X11
	MOVOU 112(AX), X12
	MOVOU 128(AX), X13
	MOVOU 144(AX), X14
	MOVOU 160(AX), X15

four:
	CMPQ  DX, $4
	JLT   one
	MOVOU 0(CX), X0
	MOVOU 16(CX), X1
	MOVOU 32(CX), X2
	MOVOU 48(CX), X3
	PXOR  X5, X0
	PXOR  X5, X1
	PXOR  X5, X2
	PXOR  X5, X3
	ENC4(AESENC, X6)
	ENC4(AESENC, X7)
	ENC4(AESENC, X8)
	ENC4(AESENC, X9)
	ENC4(AESENC, X10)
	ENC4(AESENC, X11)
	ENC4(AESENC, X12)
	ENC4(AESENC, X13)
	ENC4(AESENC, X14)
	ENC4(AESENCLAST, X15)
	MOVOU X0, 0(BX)
	MOVOU X1, 16(BX)
	MOVOU X2, 32(BX)
	MOVOU X3, 48(BX)
	ADDQ  $64, CX
	ADDQ  $64, BX
	SUBQ  $4, DX
	JMP   four

one:
	TESTQ DX, DX
	JEQ   done
	MOVOU (CX), X0
	PXOR  X5, X0
	AESENC X6, X0
	AESENC X7, X0
	AESENC X8, X0
	AESENC X9, X0
	AESENC X10, X0
	AESENC X11, X0
	AESENC X12, X0
	AESENC X13, X0
	AESENC X14, X0
	AESENCLAST X15, X0
	MOVOU X0, (BX)
	ADDQ  $16, CX
	ADDQ  $16, BX
	DECQ  DX
	JMP   one

done:
	RET

// VAES tier: two gates per call. One YMM register carries both tweak
// keys of a gate, one key per 128-bit lane, so a single VEX instruction
// stream runs what the AES-NI tier needs two for; two gates are
// interleaved per call to hide the key-step latency of each other.
// VPSHUFB, VPSLLDQ, VPSLLD and VAESENC[LAST] all work per lane, so the
// round-key step is the one above, verbatim, on both lanes at once. The
// three-operand forms also drop its register copies.

// VLOAD2 builds Y from two blocks — low lane at offLo, high lane at
// offHi — reading each as 8-byte halves for the reason LOAD16 gives.
// XY must name Y's low half; XT is scratch.
#define VLOAD2(offLo, offHi, base, XY, Y, XT) \
	VMOVQ       offLo(base), XY; \
	VPINSRQ     $1, offLo+8(base), XY, XY; \
	VMOVQ       offHi(base), XT; \
	VPINSRQ     $1, offHi+8(base), XT, XT; \
	VINSERTI128 $1, XT, Y, Y

// VSTORE2 is the inverse of VLOAD2.
#define VSTORE2(offLo, offHi, base, XY, Y) \
	VMOVDQU      XY, offLo(base); \
	VEXTRACTI128 $1, Y, offHi(base)

#define YMASK Y14
#define YRC   Y15

// YKEYSTEP advances the two round keys in K to the next round in place;
// T and U are scratch.
#define YKEYSTEP(K, T, U) \
	VPSHUFB     YMASK, K, T; \
	VAESENCLAST YRC, T, T; \
	VPSLLDQ     $4, K, U; \
	VPXOR       U, K, K; \
	VPSLLDQ     $8, K, U; \
	VPXOR       U, K, K; \
	VPXOR       T, K, K

// YTEN_ROUNDS is TEN_ROUNDS over the YMM round constant.
#define YTEN_ROUNDS(ROUND) \
	ROUND(VAESENC); \
	VPSLLD $1, YRC, YRC; \
	ROUND(VAESENC); \
	VPSLLD $1, YRC, YRC; \
	ROUND(VAESENC); \
	VPSLLD $1, YRC, YRC; \
	ROUND(VAESENC); \
	VPSLLD $1, YRC, YRC; \
	ROUND(VAESENC); \
	VPSLLD $1, YRC, YRC; \
	ROUND(VAESENC); \
	VPSLLD $1, YRC, YRC; \
	ROUND(VAESENC); \
	VPSLLD $1, YRC, YRC; \
	ROUND(VAESENC); \
	VBROADCASTI128 rcon1b<>(SB), YRC; \
	ROUND(VAESENC); \
	VPSLLD $1, YRC, YRC; \
	ROUND(VAESENCLAST)

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// Four fresh keys, one block each (two evaluated AND gates): Y0 holds
// keys 0,1 and Y1 keys 2,3; Y2 and Y3 the matching blocks.
#define YROUND4x1(ENC) \
	YKEYSTEP(Y0, Y4, Y5); \
	YKEYSTEP(Y1, Y6, Y7); \
	ENC Y0, Y2, Y2; \
	ENC Y1, Y3, Y3

// func freshKeyQuadVAES(keys, dst, src *[4]Block)
TEXT ·freshKeyQuadVAES(SB), NOSPLIT, $0-24
	MOVQ keys+0(FP), AX
	MOVQ dst+8(FP), BX
	MOVQ src+16(FP), CX
	VLOAD2(0, 16, AX, X0, Y0, X8)
	VLOAD2(32, 48, AX, X1, Y1, X9)
	VLOAD2(0, 16, CX, X2, Y2, X10)
	VLOAD2(32, 48, CX, X3, Y3, X11)
	VBROADCASTI128 rotMask<>(SB), YMASK
	VBROADCASTI128 rcon01<>(SB), YRC
	VPXOR Y0, Y2, Y2
	VPXOR Y1, Y3, Y3
	YTEN_ROUNDS(YROUND4x1)
	VSTORE2(0, 16, BX, X2, Y2)
	VSTORE2(32, 48, BX, X3, Y3)
	VZEROUPPER
	RET

// Four fresh keys, two blocks each (two garbled AND gates): block 2i and
// 2i+1 under key i. Y0 holds keys 0,1 with Y2 = blocks 0,2 and Y3 =
// blocks 1,3 — each lane's block under that lane's key; Y1 holds keys
// 2,3 with Y4 = blocks 4,6 and Y5 = blocks 5,7.
#define YROUND4x2(ENC) \
	YKEYSTEP(Y0, Y6, Y7); \
	YKEYSTEP(Y1, Y8, Y9); \
	ENC Y0, Y2, Y2; \
	ENC Y0, Y3, Y3; \
	ENC Y1, Y4, Y4; \
	ENC Y1, Y5, Y5

// func freshKeyQuad2VAES(keys *[4]Block, dst, src *[8]Block)
TEXT ·freshKeyQuad2VAES(SB), NOSPLIT, $0-24
	MOVQ keys+0(FP), AX
	MOVQ dst+8(FP), BX
	MOVQ src+16(FP), CX
	VLOAD2(0, 16, AX, X0, Y0, X10)
	VLOAD2(32, 48, AX, X1, Y1, X11)
	VLOAD2(0, 32, CX, X2, Y2, X12)
	VLOAD2(16, 48, CX, X3, Y3, X13)
	VLOAD2(64, 96, CX, X4, Y4, X10)
	VLOAD2(80, 112, CX, X5, Y5, X11)
	VBROADCASTI128 rotMask<>(SB), YMASK
	VBROADCASTI128 rcon01<>(SB), YRC
	VPXOR Y0, Y2, Y2
	VPXOR Y0, Y3, Y3
	VPXOR Y1, Y4, Y4
	VPXOR Y1, Y5, Y5
	YTEN_ROUNDS(YROUND4x2)
	VSTORE2(0, 32, BX, X2, Y2)
	VSTORE2(16, 48, BX, X3, Y3)
	VSTORE2(64, 96, BX, X4, Y4)
	VSTORE2(80, 112, BX, X5, Y5)
	VZEROUPPER
	RET
