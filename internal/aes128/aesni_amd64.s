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

// VAES tier: the half-gate step kernels. One call garbles (or evaluates)
// a run of a schedule step's AND gates two at a time, start to finish:
// it reads the plan's gate records and table indices as they lie in
// memory, gathers the input labels from the slot arena, builds the
// tweak keys in registers, runs the fresh-key rounds, feeds forward,
// selects the half-gate rows with colour-bit masks and stores the table
// and the output label — the software shape of HAAC's Half-Gate unit,
// which takes an instruction and writes a wire and a table with nothing
// dispatched in between. No instruction branches on, or addresses memory
// by, a label: control flow and addresses depend only on the plan.
//
// One YMM register carries both tweak keys of a gate, one key per
// 128-bit lane, and the gate's labels ride in the matching lanes: the A
// side under tweak 2j in the low lane, the B side under 2j+1 in the high
// one. VPSHUFB, VPSLLDQ, VPSLLD and VAESENC[LAST] all work per lane, so
// the round-key step is the one above, verbatim, on both lanes at once;
// the three-operand forms also drop its register copies. Two gates are
// interleaved per iteration to hide each other's key-step latency, and
// because the loop is inside the call the out-of-order core also overlaps
// the tail of one pair with the head of the next.
//
// Nothing here is bounds-checked. The Go wrappers state what the caller
// must have verified about every index the kernels follow.

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

// tweakKeys turns four copies of the even tweak t = 2j into the gate's
// two keys K(t) ‖ K(t+1), K(t) = t ‖ ^t: t+1 is t^1 and ^(t+1) is ^t^1.
DATA tweakKeys<>+0(SB)/8, $0x0000000000000000
DATA tweakKeys<>+8(SB)/8, $0xffffffffffffffff
DATA tweakKeys<>+16(SB)/8, $0x0000000000000001
DATA tweakKeys<>+24(SB)/8, $0xfffffffffffffffe
GLOBL tweakKeys<>(SB), (NOPTR+RODATA), $32

// Register roles shared by both step kernels: SI the slot arena, DI the
// tables, BX the next gate record (16 bytes: A at 4, B at 8, C at 12), CX
// the next table index, DX the pairs left.

// STEPKEYS reads the table index at off(CX) and builds that gate's keys
// in YK (XK its low half); J is left holding the byte offset of the
// gate's table, 32j.
#define STEPKEYS(off, J, XK, YK) \
	MOVL         off(CX), J; \
	ADDQ         J, J; \
	VMOVQ        J, XK; \
	VPBROADCASTQ XK, YK; \
	VPXOR        tweakKeys<>(SB), YK, YK; \
	SHLQ         $4, J

// GATHER loads the input labels of the gate record at off(BX) into YL
// (XL its low half), slots[A] ‖ slots[B], and leaves the byte offset of
// slots[C] in C. RT is scratch.
#define GATHER(off, C, RT, XL, YL) \
	MOVL        off+4(BX), C; \
	MOVL        off+8(BX), RT; \
	SHLQ        $4, C; \
	SHLQ        $4, RT; \
	VMOVDQU     (SI)(C*1), XL; \
	VINSERTI128 $1, (SI)(RT*1), YL, YL; \
	MOVL        off+12(BX), C; \
	SHLQ        $4, C

// COLOURS spreads the colour bit (bit 0) of each lane of L over the
// whole lane of M: all ones where the label's colour is 1.
#define COLOURS(L, M) \
	VPSLLQ  $63, L, M; \
	VPSRAD  $31, M, M; \
	VPSHUFD $0x55, M, M

// FOLD stores lane 0 ^ lane 1 of W, the gate's output label, to the slot
// at byte offset C. XW must name W's low half; XT is scratch.
#define FOLD(W, XW, XT, C) \
	VEXTRACTI128 $1, W, XT; \
	VPXOR        XT, XW, XW; \
	VMOVDQU      XW, (SI)(C*1)

// Two garbled gates: Y0 and Y1 hold their keys; Y2 = a0 ‖ b0 and Y3 =
// a1 ‖ b1 are the first gate's blocks, each lane's block under that
// lane's key, Y4 and Y5 the second gate's.
#define YROUND4x2(ENC) \
	YKEYSTEP(Y0, Y6, Y7); \
	YKEYSTEP(Y1, Y8, Y9); \
	ENC Y0, Y2, Y2; \
	ENC Y0, Y3, Y3; \
	ENC Y1, Y4, Y4; \
	ENC Y1, Y5, Y5

// GARBLEROWS finishes one garbled gate. E0 = AES(a0) ‖ AES(b0), E1 =
// AES(a1) ‖ AES(b1), L = a0 ‖ b0, Y13 = r ‖ r; J and C are the byte
// offsets of the gate's table and output slot. With H = E ^ label and
// masks pa, pb from the colours of a0, b0 (garbleRows in internal/gc):
//	S  = H(a0)^H(a1)^(pb&r) ‖ H(b0)^H(b1)
//	T  = S ^ (0 ‖ a0)                       = TG ‖ TE, stored as it is
//	W  = H(a0)^(pa&TG) ‖ H(b0)^(pb&(TE^a0)) = wg ‖ we, folded to slots[C]
// Y0 and Y6..Y9 are scratch; E0 and E1 are consumed.
#define GARBLEROWS(E0, XE0, E1, L, J, C) \
	COLOURS(L, Y6); \
	VEXTRACTI128 $1, Y6, X7; \
	VPAND        Y13, Y7, Y7; \
	VPXOR        E0, E1, E1; \
	VPXOR        Y13, E1, E1; \
	VPXOR        Y7, E1, E1; \
	VPERM2I128   $0x08, L, L, Y8; \
	VPXOR        Y8, E1, Y8; \
	VMOVDQU      Y8, (DI)(J*1); \
	VPXOR        L, E0, E0; \
	VPAND        Y6, E1, E1; \
	VPXOR        E1, E0, E0; \
	FOLD(E0, XE0, X9, C)

// func garbleStepVAES(slots *Block, tables *[2]Block, r *Block, gates *Gate, index *int32, pairs int)
TEXT ·garbleStepVAES(SB), NOSPLIT, $0-48
	MOVQ slots+0(FP), SI
	MOVQ tables+8(FP), DI
	MOVQ r+16(FP), AX
	MOVQ gates+24(FP), BX
	MOVQ index+32(FP), CX
	MOVQ pairs+40(FP), DX
	VBROADCASTI128 (AX), Y13
	VBROADCASTI128 rotMask<>(SB), YMASK

garblePair:
	STEPKEYS(0, R8, X0, Y0)
	STEPKEYS(4, R9, X1, Y1)
	GATHER(0, R10, R12, X10, Y10)
	GATHER(16, R11, R12, X11, Y11)
	VBROADCASTI128 rcon01<>(SB), YRC
	VPXOR Y0, Y10, Y2
	VPXOR Y13, Y2, Y3
	VPXOR Y1, Y11, Y4
	VPXOR Y13, Y4, Y5
	YTEN_ROUNDS(YROUND4x2)
	GARBLEROWS(Y2, X2, Y3, Y10, R8, R10)
	GARBLEROWS(Y4, X4, Y5, Y11, R9, R11)
	ADDQ $32, BX
	ADDQ $8, CX
	DECQ DX
	JNZ  garblePair
	VZEROUPPER
	RET

// Two evaluated gates: Y0 and Y1 hold their keys, Y2 = a ‖ b the first
// gate's block pair and Y3 the second's.
#define YROUND4x1(ENC) \
	YKEYSTEP(Y0, Y4, Y5); \
	YKEYSTEP(Y1, Y6, Y7); \
	ENC Y0, Y2, Y2; \
	ENC Y1, Y3, Y3

// EVALROWS finishes one evaluated gate. E = AES(a) ‖ AES(b), L = a ‖ b;
// J and C as in GARBLEROWS. With masks pa, pb from the colours of a, b
// (evalRows in internal/gc):
//	W = H(a)^(pa&TG) ‖ H(b)^(pb&(TE^a)), folded to slots[C]
// Y4..Y6 are scratch; E is consumed.
#define EVALROWS(E, XE, L, J, C) \
	COLOURS(L, Y4); \
	VPERM2I128 $0x08, L, L, Y5; \
	VPXOR      (DI)(J*1), Y5, Y5; \
	VPAND      Y4, Y5, Y5; \
	VPXOR      L, E, E; \
	VPXOR      Y5, E, E; \
	FOLD(E, XE, X6, C)

// func evalStepVAES(slots *Block, tables *[2]Block, gates *Gate, index *int32, pairs int)
TEXT ·evalStepVAES(SB), NOSPLIT, $0-40
	MOVQ slots+0(FP), SI
	MOVQ tables+8(FP), DI
	MOVQ gates+16(FP), BX
	MOVQ index+24(FP), CX
	MOVQ pairs+32(FP), DX
	VBROADCASTI128 rotMask<>(SB), YMASK

evalPair:
	STEPKEYS(0, R8, X0, Y0)
	STEPKEYS(4, R9, X1, Y1)
	GATHER(0, R10, R12, X8, Y8)
	GATHER(16, R11, R12, X9, Y9)
	VBROADCASTI128 rcon01<>(SB), YRC
	VPXOR Y0, Y8, Y2
	VPXOR Y1, Y9, Y3
	YTEN_ROUNDS(YROUND4x1)
	EVALROWS(Y2, X2, Y8, R8, R10)
	EVALROWS(Y3, X3, Y9, R9, R11)
	ADDQ $32, BX
	ADDQ $8, CX
	DECQ DX
	JNZ  evalPair
	VZEROUPPER
	RET
