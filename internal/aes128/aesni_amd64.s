//go:build amd64 && !purego

#include "textflag.h"

// The hardware tiers: the AES-NI kernels first, the VAES step kernels
// (a whole schedule step per call) at the end. Cipher.Encrypt runs the
// four-block AES-NI loop on every hardware tier; the VAES forms of a
// fixed key's AES live with their callers (internal/ot's fill kernels,
// under Cipher.RoundKeys). The fresh-key kernels never store a key
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

// VAES tiers: the half-gate step kernels. One call runs a whole schedule
// step, start to finish: first its free gates (XOR and INV, in plan
// order, so a gate may read what an earlier one wrote), then its AND
// gates. For those it reads the plan's gate records and table indices as
// they lie in memory, gathers the input labels from the slot arena,
// builds the tweak keys in registers, runs the fresh-key rounds, feeds
// forward, selects the half-gate rows with colour-bit masks and stores
// the table and the output label — the software shape of HAAC's
// Half-Gate unit, which takes an instruction and writes a wire and a
// table with nothing dispatched in between. No instruction branches on,
// or addresses memory by, a label: control flow and addresses depend
// only on the plan.
//
// One 256-bit half carries both tweak keys of a gate, one key per 128-bit
// lane, and the gate's labels ride in the matching lanes: the A side
// under tweak 2j in the low lane, the B side under 2j+1 in the high one.
// VPSHUFB, VPSLLDQ, VPSLLD and VAESENC[LAST] all work per lane, so the
// round-key step is the one above on every lane at once. The unit keeps
// several gates' key expansions in flight; so does each kernel:
//
//   - on the vaes512 tier a ZMM loop takes eight gates per iteration, two
//     per register (four key registers, Z0..Z3), and ZTAIL the last one
//     to seven: by one more ZMM iteration one, two or four registers
//     wide, ending at the run's end (it may redo gates), or by the
//     one-gate YMM iteration;
//   - on the vaes tier a YMM loop takes four gates per iteration, one per
//     register (AVX2 has sixteen vector registers), and a one-gate YMM
//     iteration the last up to three.
//
// The widths come from BenchmarkEvalStep/BenchmarkGarbleStep: the loops
// are bound by vector-port throughput as much as by the key-step latency,
// and a ZMM register carries two gates' keys for the price of one µop.
// Because the loops are inside the call the out-of-order core also
// overlaps the tail of one iteration with the head of the next. A redone
// gate reads the same inputs, since no AND gate of a step writes a slot
// one of them reads, and stores the same bytes to the same places.
//
// Nothing here is bounds-checked. The Go wrappers state what the caller
// must have verified about every index the kernels follow.

#define YMASK Y14
#define YRC   Y15
#define ZMASK Z30
#define ZRC   Z31

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

// ZKEYSTEP is YKEYSTEP over four lanes, one µop shorter: with K1 = K ^
// K<<4 the new key is K1 ^ K1<<8 ^ T, one three-way XOR.
#define ZKEYSTEP(K, T, U) \
	VPSHUFB     ZMASK, K, T; \
	VAESENCLAST ZRC, T, T; \
	VPSLLDQ     $4, K, U; \
	VPXORQ      U, K, K; \
	VPSLLDQ     $8, K, U; \
	VPTERNLOGQ  $0x96, T, U, K

// YTEN_ROUNDS and ZTEN_ROUNDS are TEN_ROUNDS over the YMM and ZMM round
// constants.
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

#define ZTEN_ROUNDS(ROUND) \
	ROUND(VAESENC); \
	VPSLLD $1, ZRC, ZRC; \
	ROUND(VAESENC); \
	VPSLLD $1, ZRC, ZRC; \
	ROUND(VAESENC); \
	VPSLLD $1, ZRC, ZRC; \
	ROUND(VAESENC); \
	VPSLLD $1, ZRC, ZRC; \
	ROUND(VAESENC); \
	VPSLLD $1, ZRC, ZRC; \
	ROUND(VAESENC); \
	VPSLLD $1, ZRC, ZRC; \
	ROUND(VAESENC); \
	VPSLLD $1, ZRC, ZRC; \
	ROUND(VAESENC); \
	VBROADCASTI32X4 rcon1b<>(SB), ZRC; \
	ROUND(VAESENC); \
	VPSLLD $1, ZRC, ZRC; \
	ROUND(VAESENCLAST)

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// tweakKeys turns copies of the even tweak t = 2j into the gate's two
// keys K(t) ‖ K(t+1), K(t) = t ‖ ^t: t+1 is t^1 and ^(t+1) is ^t^1. The
// pattern is there twice, for a ZMM register's two gates.
DATA tweakKeys<>+0(SB)/8, $0x0000000000000000
DATA tweakKeys<>+8(SB)/8, $0xffffffffffffffff
DATA tweakKeys<>+16(SB)/8, $0x0000000000000001
DATA tweakKeys<>+24(SB)/8, $0xfffffffffffffffe
DATA tweakKeys<>+32(SB)/8, $0x0000000000000000
DATA tweakKeys<>+40(SB)/8, $0xffffffffffffffff
DATA tweakKeys<>+48(SB)/8, $0x0000000000000001
DATA tweakKeys<>+56(SB)/8, $0xfffffffffffffffe
GLOBL tweakKeys<>(SB), (NOPTR+RODATA), $64

// Register roles shared by both step kernels: SI the slot arena, DI the
// tables, BX the next gate record (16 bytes: the op in byte 0, A at 4, B
// at 8, C at 12), CX the next table index (4 bytes), DX the gates left,
// R12 the run's AND gates; R8..R11 scratch. A macro's goff and ioff name
// its gate's record and index relative to BX and CX. Indices are re-read
// where they are used rather than held.

// ZTAIL runs the last DX (1..7) gates of a run of R12 on the vaes512
// tier: one gate by the YMM iteration at Y1, two by the ZMM iteration at
// Z2, three or four by the one at Z4, five to seven by one more pass of
// the loop at Z8. An iteration wider than DX first steps BX and CX back
// to end it at the run's end, so it redoes gates the run already did; on
// a run shorter than its width the half as wide iteration goes first.
#define ZTAIL(Y1, Z2, Z4, Z8) \
	CMPQ DX, $1; \
	JEQ  Y1; \
	CMPQ DX, $2; \
	JEQ  Z2; \
	MOVQ $4, R8; \
	CMPQ DX, $4; \
	JLE  ztailWidth; \
	MOVQ $8, R8; \
ztailWidth: \
	CMPQ R12, R8; \
	JLT  ztailNarrow; \
	MOVQ R8, R9; \
	SUBQ DX, R9; \
	MOVQ R8, DX; \
	SHLQ $2, R9; \
	SUBQ R9, CX; \
	SHLQ $2, R9; \
	SUBQ R9, BX; \
	CMPQ DX, $8; \
	JEQ  Z8; \
	JMP  Z4; \
ztailNarrow: \
	CMPQ R8, $8; \
	JEQ  Z4; \
	JMP  Z2

// YKEYS builds the keys of the gate whose table index j is at ioff(CX) in
// Y: the dword j broadcast, each qword (j<<32 | j) >> 31 = 2j since
// 0 <= j < 2^31, XORed with the tweak pattern.
#define YKEYS(ioff, Y) \
	VPBROADCASTD ioff(CX), Y; \
	VPSRLQ       $31, Y, Y; \
	VPXOR        tweakKeys<>(SB), Y, Y

// ZKEYS is YKEYS for the gates whose indices are at ioff(CX) and
// ioff+4(CX): the first's keys in lanes 0 and 1, the second's in 2 and
// 3. K3 = 0xff00 picks the upper eight dwords.
#define ZKEYS(ioff, Z) \
	VPBROADCASTD ioff(CX), Z; \
	VPBROADCASTD ioff+4(CX), K3, Z; \
	VPSRLQ       $31, Z, Z; \
	VPXORQ       tweakKeys<>(SB), Z, Z

// YGATHER loads the input labels of the gate record at goff(BX) into Y
// (X its low half): slots[A] ‖ slots[B].
#define YGATHER(goff, X, Y) \
	MOVL        goff+4(BX), R8; \
	MOVL        goff+8(BX), R9; \
	SHLQ        $4, R8; \
	SHLQ        $4, R9; \
	VMOVDQU     (SI)(R8*1), X; \
	VINSERTI128 $1, (SI)(R9*1), Y, Y

// ZGATHER is YGATHER for the records at goff(BX) and goff+16(BX):
// a ‖ b ‖ a' ‖ b'.
#define ZGATHER(goff, X, Z) \
	MOVL         goff+4(BX), R8; \
	MOVL         goff+8(BX), R9; \
	MOVL         goff+20(BX), R10; \
	MOVL         goff+24(BX), R11; \
	SHLQ         $4, R8; \
	SHLQ         $4, R9; \
	SHLQ         $4, R10; \
	SHLQ         $4, R11; \
	VMOVDQU      (SI)(R8*1), X; \
	VINSERTI32X4 $1, (SI)(R9*1), Z, Z; \
	VINSERTI32X4 $2, (SI)(R10*1), Z, Z; \
	VINSERTI32X4 $3, (SI)(R11*1), Z, Z

// COLOURS spreads the colour bit (bit 0) of each lane of L over the
// whole lane of M: all ones where the label's colour is 1.
#define COLOURS(L, M) \
	VPSLLQ  $63, L, M; \
	VPSRAD  $31, M, M; \
	VPSHUFD $0x55, M, M

// YFOLD stores lane 0 ^ lane 1 of W, the gate's output label, to
// slots[C] of the record at goff(BX). XW must name W's low half; XT is
// scratch.
#define YFOLD(goff, W, XW, XT) \
	VEXTRACTI128 $1, W, XT; \
	VPXOR        XT, XW, XW; \
	MOVL         goff+12(BX), R8; \
	SHLQ         $4, R8; \
	VMOVDQU      XW, (SI)(R8*1)

// ZFOLD is YFOLD for the two gates of W: lanes 0^1 to the record at
// goff(BX), lanes 2^3 to the one at goff+16(BX). T is scratch.
#define ZFOLD(goff, W, XW, T) \
	VPERMQ        $0x4e, W, T; \
	VPXORQ        T, W, W; \
	MOVL          goff+12(BX), R8; \
	MOVL          goff+28(BX), R9; \
	SHLQ          $4, R8; \
	SHLQ          $4, R9; \
	VMOVDQU       XW, (SI)(R8*1); \
	VEXTRACTI32X4 $2, W, (SI)(R9*1)

// The garbler. For one gate, with E0 = AES(a0) ‖ AES(b0), E1 = AES(a1) ‖
// AES(b1), L = a0 ‖ b0, R = r ‖ r and masks pa, pb from the colours of
// a0, b0 (garbleRows in internal/gc; H(x) = AES(x) ^ x, a1 = a0 ^ r):
//	S = E0^E1^((r&^pb) ‖ r) = H(a0)^H(a1)^(pb&r) ‖ H(b0)^H(b1)
//	T = S ^ (0 ‖ a0)        = TG ‖ TE, stored to tables[j] as it is
//	W = E0^L^(pa‖pb & S)    = H(a0)^(pa&TG) ‖ H(b0)^(pb&(TE^a0)) = wg ‖ we
// and wg ^ we goes to slots[C].

// YGARBLEIN gathers the gate at goff(BX) into the spill slot loff(SP) and
// sets its blocks D0 = K ^ L and D1 = D0 ^ R; Y13 = R, Y12 is scratch.
#define YGARBLEIN(goff, loff, K, D0, D1) \
	YGATHER(goff, X12, Y12); \
	VMOVDQU Y12, loff(SP); \
	VPXOR   K, Y12, D0; \
	VPXOR   Y13, D0, D1

// YGARBLEROWS finishes the gate at goff(BX) and ioff(CX), its labels
// spilled at loff(SP). Y15 = R; Y0, Y1, Y12 and Y13 are scratch; E0 and
// E1 are consumed.
#define YGARBLEROWS(ioff, goff, loff, E0, XE0, E1) \
	VMOVDQU      loff(SP), Y12; \
	COLOURS(Y12, Y13); \
	VEXTRACTI128 $1, Y13, X0; \
	VPANDN       Y15, Y0, Y0; \
	VPXOR        E0, E1, E1; \
	VPXOR        Y0, E1, E1; \
	VPERM2I128   $0x08, Y12, Y12, Y1; \
	VPXOR        E1, Y1, Y1; \
	MOVL         ioff(CX), R8; \
	SHLQ         $5, R8; \
	VMOVDQU      Y1, (DI)(R8*1); \
	VPAND        Y13, E1, E1; \
	VPXOR        Y12, E0, E0; \
	VPXOR        E1, E0, E0; \
	YFOLD(goff, E0, XE0, X1)

// ZGARBLEROWS is YGARBLEROWS for the two gates at goff(BX) and ioff(CX),
// their labels in L. Z29 = R, K1 = 0x33 and K2 = 0xcc pick each gate's
// low and high lanes; Z16..Z18 are scratch.
#define ZGARBLEROWS(ioff, goff, E0, XE0, E1, L) \
	COLOURS(L, Z16); \
	VPERMQ.Z      $0xee, Z16, K1, Z17; \
	VPANDNQ       Z29, Z17, Z17; \
	VPTERNLOGQ    $0x96, Z17, E0, E1; \
	VPERMQ.Z      $0x44, L, K2, Z18; \
	VPXORQ        E1, Z18, Z18; \
	MOVL          ioff(CX), R8; \
	MOVL          ioff+4(CX), R9; \
	SHLQ          $5, R8; \
	SHLQ          $5, R9; \
	VMOVDQU64     Y18, (DI)(R8*1); \
	VEXTRACTI64X4 $1, Z18, (DI)(R9*1); \
	VPANDQ        Z16, E1, E1; \
	VPTERNLOGQ    $0x96, E1, L, E0; \
	ZFOLD(goff, E0, XE0, Z17)

// Garbler rounds: keys Y0..Y3 (Z0..Z3), blocks Y4, Y5 under the first,
// Y6, Y7 under the second, and so on.
#define YROUND1x2(ENC) \
	YKEYSTEP(Y0, Y12, Y13); \
	ENC Y0, Y4, Y4; \
	ENC Y0, Y5, Y5

#define YROUND4x2(ENC) \
	YKEYSTEP(Y0, Y12, Y13); \
	YKEYSTEP(Y1, Y12, Y13); \
	YKEYSTEP(Y2, Y12, Y13); \
	YKEYSTEP(Y3, Y12, Y13); \
	ENC Y0, Y4, Y4; \
	ENC Y0, Y5, Y5; \
	ENC Y1, Y6, Y6; \
	ENC Y1, Y7, Y7; \
	ENC Y2, Y8, Y8; \
	ENC Y2, Y9, Y9; \
	ENC Y3, Y10, Y10; \
	ENC Y3, Y11, Y11

#define ZROUND2x2(ENC) \
	ZKEYSTEP(Z0, Z16, Z17); \
	ENC Z0, Z4, Z4; \
	ENC Z0, Z5, Z5

#define ZROUND4x2(ENC) \
	ZKEYSTEP(Z0, Z16, Z17); \
	ZKEYSTEP(Z1, Z18, Z19); \
	ENC Z0, Z4, Z4; \
	ENC Z0, Z5, Z5; \
	ENC Z1, Z6, Z6; \
	ENC Z1, Z7, Z7

#define ZROUND8x2(ENC) \
	ZKEYSTEP(Z0, Z16, Z17); \
	ZKEYSTEP(Z1, Z18, Z19); \
	ZKEYSTEP(Z2, Z20, Z21); \
	ZKEYSTEP(Z3, Z22, Z23); \
	ENC Z0, Z4, Z4; \
	ENC Z0, Z5, Z5; \
	ENC Z1, Z6, Z6; \
	ENC Z1, Z7, Z7; \
	ENC Z2, Z8, Z8; \
	ENC Z2, Z9, Z9; \
	ENC Z3, Z10, Z10; \
	ENC Z3, Z11, Z11

// ZGARBLEIN gathers the gates at goff(BX) into L and sets their blocks
// D0 = K ^ L and D1 = D0 ^ R; Z29 = R.
#define ZGARBLEIN(goff, K, XL, L, D0, D1) \
	ZGATHER(goff, XL, L); \
	VPXORQ K, L, D0; \
	VPXORQ Z29, D0, D1

// func garbleStepVAES(slots *Block, tables *[2]Block, r *Block, free *Gate, nFree int, and *Gate, index *int32, nAnd int, zmm bool)
//
// The YMM stages spill each gate's labels to the frame: their keys,
// blocks, mask and round constant take all sixteen registers.
TEXT ·garbleStepVAES(SB), NOSPLIT, $128-65
	MOVQ slots+0(FP), SI
	MOVQ tables+8(FP), DI
	MOVQ r+16(FP), AX
	MOVQ free+24(FP), BX
	MOVQ nFree+32(FP), DX

	// Free gates: C = A ^ B for XOR (op 0), C = A ^ r for INV.
	VMOVDQU (AX), X1
	TESTQ   DX, DX
	JEQ     garbleAnd

garbleFree:
	MOVL    4(BX), R8
	MOVL    8(BX), R9
	MOVL    12(BX), R10
	SHLQ    $4, R8
	SHLQ    $4, R9
	SHLQ    $4, R10
	VMOVDQU (SI)(R8*1), X0
	CMPB    (BX), $0
	JNE     garbleInv
	VPXOR   (SI)(R9*1), X0, X0
	JMP     garbleFreeStore

garbleInv:
	VPXOR X1, X0, X0

garbleFreeStore:
	VMOVDQU X0, (SI)(R10*1)
	ADDQ    $16, BX
	DECQ    DX
	JNZ     garbleFree

garbleAnd:
	MOVQ and+40(FP), BX
	MOVQ index+48(FP), CX
	MOVQ nAnd+56(FP), DX
	MOVQ DX, R12
	CMPB zmm+64(FP), $0
	JEQ  garbleY

	VBROADCASTI32X4 (AX), Z29
	VBROADCASTI32X4 rotMask<>(SB), ZMASK
	MOVL            $0x33, R8
	KMOVW           R8, K1
	MOVL            $0xcc, R8
	KMOVW           R8, K2
	MOVL            $0xff00, R8
	KMOVW           R8, K3

garbleZ8:
	CMPQ DX, $8
	JLT  garbleZTail
	ZKEYS(0, Z0)
	ZKEYS(8, Z1)
	ZKEYS(16, Z2)
	ZKEYS(24, Z3)
	ZGARBLEIN(0, Z0, X12, Z12, Z4, Z5)
	ZGARBLEIN(32, Z1, X13, Z13, Z6, Z7)
	ZGARBLEIN(64, Z2, X14, Z14, Z8, Z9)
	ZGARBLEIN(96, Z3, X15, Z15, Z10, Z11)
	VBROADCASTI32X4 rcon01<>(SB), ZRC
	ZTEN_ROUNDS(ZROUND8x2)
	ZGARBLEROWS(0, 0, Z4, X4, Z5, Z12)
	ZGARBLEROWS(8, 32, Z6, X6, Z7, Z13)
	ZGARBLEROWS(16, 64, Z8, X8, Z9, Z14)
	ZGARBLEROWS(24, 96, Z10, X10, Z11, Z15)
	ADDQ $128, BX
	ADDQ $32, CX
	SUBQ $8, DX
	JMP  garbleZ8

garbleZTail:
	TESTQ DX, DX
	JEQ   garbleDone
	ZTAIL(garbleY, garbleZ2, garbleZ4, garbleZ8)

garbleZ4:
	ZKEYS(0, Z0)
	ZKEYS(8, Z1)
	ZGARBLEIN(0, Z0, X12, Z12, Z4, Z5)
	ZGARBLEIN(32, Z1, X13, Z13, Z6, Z7)
	VBROADCASTI32X4 rcon01<>(SB), ZRC
	ZTEN_ROUNDS(ZROUND4x2)
	ZGARBLEROWS(0, 0, Z4, X4, Z5, Z12)
	ZGARBLEROWS(8, 32, Z6, X6, Z7, Z13)
	ADDQ $64, BX
	ADDQ $16, CX
	SUBQ $4, DX
	JMP  garbleZTail

garbleZ2:
	ZKEYS(0, Z0)
	ZGARBLEIN(0, Z0, X12, Z12, Z4, Z5)
	VBROADCASTI32X4 rcon01<>(SB), ZRC
	ZTEN_ROUNDS(ZROUND2x2)
	ZGARBLEROWS(0, 0, Z4, X4, Z5, Z12)
	ADDQ $32, BX
	ADDQ $8, CX
	SUBQ $2, DX
	JMP  garbleZTail

garbleY:
	VBROADCASTI128 rotMask<>(SB), YMASK

garbleY4:
	CMPQ DX, $4
	JLT  garbleY1
	VBROADCASTI128 (AX), Y13
	YKEYS(0, Y0)
	YKEYS(4, Y1)
	YKEYS(8, Y2)
	YKEYS(12, Y3)
	YGARBLEIN(0, 0, Y0, Y4, Y5)
	YGARBLEIN(16, 32, Y1, Y6, Y7)
	YGARBLEIN(32, 64, Y2, Y8, Y9)
	YGARBLEIN(48, 96, Y3, Y10, Y11)
	VBROADCASTI128 rcon01<>(SB), YRC
	YTEN_ROUNDS(YROUND4x2)
	VBROADCASTI128 (AX), Y15
	YGARBLEROWS(0, 0, 0, Y4, X4, Y5)
	YGARBLEROWS(4, 16, 32, Y6, X6, Y7)
	YGARBLEROWS(8, 32, 64, Y8, X8, Y9)
	YGARBLEROWS(12, 48, 96, Y10, X10, Y11)
	ADDQ $64, BX
	ADDQ $16, CX
	SUBQ $4, DX
	JMP  garbleY4

garbleY1:
	TESTQ DX, DX
	JEQ   garbleDone
	VBROADCASTI128 (AX), Y13
	YKEYS(0, Y0)
	YGARBLEIN(0, 0, Y0, Y4, Y5)
	VBROADCASTI128 rcon01<>(SB), YRC
	YTEN_ROUNDS(YROUND1x2)
	VBROADCASTI128 (AX), Y15
	YGARBLEROWS(0, 0, 0, Y4, X4, Y5)
	ADDQ $16, BX
	ADDQ $4, CX
	DECQ DX
	JMP  garbleY1

garbleDone:
	VZEROUPPER
	RET

// The evaluator. For one gate, with E = AES(a) ‖ AES(b), L = a ‖ b, the
// rows TB = TG ‖ TE from tables[j] and masks pa, pb from the colours of
// a, b (evalRows in internal/gc):
//	W = E^L^(pa‖pb & (TB ^ (0 ‖ a))) = H(a)^(pa&TG) ‖ H(b)^(pb&(TE^a))
// and lane 0 ^ lane 1 goes to slots[C].

// YEVALROWS finishes the gate at goff(BX) and ioff(CX). Y12 and Y13 are
// scratch; E is consumed.
#define YEVALROWS(ioff, goff, E, XE, L) \
	COLOURS(L, Y12); \
	MOVL       ioff(CX), R8; \
	SHLQ       $5, R8; \
	VPERM2I128 $0x08, L, L, Y13; \
	VPXOR      (DI)(R8*1), Y13, Y13; \
	VPAND      Y12, Y13, Y13; \
	VPXOR      L, E, E; \
	VPXOR      Y13, E, E; \
	YFOLD(goff, E, XE, X13)

// ZTABLES loads the rows of the gates whose indices are at ioff(CX) and
// ioff+4(CX) into Z (Y its low half).
#define ZTABLES(ioff, Y, Z) \
	MOVL         ioff(CX), R8; \
	MOVL         ioff+4(CX), R9; \
	SHLQ         $5, R8; \
	SHLQ         $5, R9; \
	VMOVDQU      (DI)(R8*1), Y; \
	VINSERTI64X4 $1, (DI)(R9*1), Z, Z

// ZEVALROWS is YEVALROWS for the two gates at goff(BX), their labels in
// L and their rows in TB. K2 = 0xcc; Z16 and Z17 are scratch.
#define ZEVALROWS(goff, E, XE, L, TB) \
	COLOURS(L, Z16); \
	VPERMQ.Z   $0x44, L, K2, Z17; \
	VPTERNLOGQ $0x60, Z17, TB, Z16; \
	VPTERNLOGQ $0x96, Z16, L, E; \
	ZFOLD(goff, E, XE, Z17)

// Evaluator rounds: keys Y0..Y3 (Z0..Z3), block Y4 (Z4) under the first,
// Y5 under the second, and so on.
#define YROUND1x1(ENC) \
	YKEYSTEP(Y0, Y12, Y13); \
	ENC Y0, Y4, Y4

#define YROUND4x1(ENC) \
	YKEYSTEP(Y0, Y12, Y13); \
	YKEYSTEP(Y1, Y12, Y13); \
	YKEYSTEP(Y2, Y12, Y13); \
	YKEYSTEP(Y3, Y12, Y13); \
	ENC Y0, Y4, Y4; \
	ENC Y1, Y5, Y5; \
	ENC Y2, Y6, Y6; \
	ENC Y3, Y7, Y7

#define ZROUND2x1(ENC) \
	ZKEYSTEP(Z0, Z16, Z17); \
	ENC Z0, Z4, Z4

#define ZROUND4x1(ENC) \
	ZKEYSTEP(Z0, Z16, Z17); \
	ZKEYSTEP(Z1, Z18, Z19); \
	ENC Z0, Z4, Z4; \
	ENC Z1, Z5, Z5

#define ZROUND8x1(ENC) \
	ZKEYSTEP(Z0, Z16, Z17); \
	ZKEYSTEP(Z1, Z18, Z19); \
	ZKEYSTEP(Z2, Z20, Z21); \
	ZKEYSTEP(Z3, Z22, Z23); \
	ENC Z0, Z4, Z4; \
	ENC Z1, Z5, Z5; \
	ENC Z2, Z6, Z6; \
	ENC Z3, Z7, Z7

// ZEVALIN gathers the gates at goff(BX) and ioff(CX): labels into L,
// rows into TB (YT its low half), block D = K ^ L.
#define ZEVALIN(goff, ioff, K, XL, L, YT, TB, D) \
	ZGATHER(goff, XL, L); \
	ZTABLES(ioff, YT, TB); \
	VPXORQ K, L, D

// func evalStepVAES(slots *Block, tables *[2]Block, free *Gate, nFree int, and *Gate, index *int32, nAnd int, zmm bool)
TEXT ·evalStepVAES(SB), NOSPLIT, $0-57
	MOVQ slots+0(FP), SI
	MOVQ tables+8(FP), DI
	MOVQ free+16(FP), BX
	MOVQ nFree+24(FP), DX

	// Free gates: C = A ^ B for XOR (op 0), C = A for INV.
	TESTQ DX, DX
	JEQ   evalAnd

evalFree:
	MOVL    4(BX), R8
	MOVL    8(BX), R9
	MOVL    12(BX), R10
	SHLQ    $4, R8
	SHLQ    $4, R9
	SHLQ    $4, R10
	VMOVDQU (SI)(R8*1), X0
	CMPB    (BX), $0
	JNE     evalFreeStore
	VPXOR   (SI)(R9*1), X0, X0

evalFreeStore:
	VMOVDQU X0, (SI)(R10*1)
	ADDQ    $16, BX
	DECQ    DX
	JNZ     evalFree

evalAnd:
	MOVQ and+32(FP), BX
	MOVQ index+40(FP), CX
	MOVQ nAnd+48(FP), DX
	MOVQ DX, R12
	CMPB zmm+56(FP), $0
	JEQ  evalY

	VBROADCASTI32X4 rotMask<>(SB), ZMASK
	MOVL            $0xcc, R8
	KMOVW           R8, K2
	MOVL            $0xff00, R8
	KMOVW           R8, K3

evalZ8:
	CMPQ DX, $8
	JLT  evalZTail
	ZKEYS(0, Z0)
	ZKEYS(8, Z1)
	ZKEYS(16, Z2)
	ZKEYS(24, Z3)
	ZEVALIN(0, 0, Z0, X8, Z8, Y12, Z12, Z4)
	ZEVALIN(32, 8, Z1, X9, Z9, Y13, Z13, Z5)
	ZEVALIN(64, 16, Z2, X10, Z10, Y14, Z14, Z6)
	ZEVALIN(96, 24, Z3, X11, Z11, Y15, Z15, Z7)
	VBROADCASTI32X4 rcon01<>(SB), ZRC
	ZTEN_ROUNDS(ZROUND8x1)
	ZEVALROWS(0, Z4, X4, Z8, Z12)
	ZEVALROWS(32, Z5, X5, Z9, Z13)
	ZEVALROWS(64, Z6, X6, Z10, Z14)
	ZEVALROWS(96, Z7, X7, Z11, Z15)
	ADDQ $128, BX
	ADDQ $32, CX
	SUBQ $8, DX
	JMP  evalZ8

evalZTail:
	TESTQ DX, DX
	JEQ   evalDone
	ZTAIL(evalY, evalZ2, evalZ4, evalZ8)

evalZ4:
	ZKEYS(0, Z0)
	ZKEYS(8, Z1)
	ZEVALIN(0, 0, Z0, X8, Z8, Y12, Z12, Z4)
	ZEVALIN(32, 8, Z1, X9, Z9, Y13, Z13, Z5)
	VBROADCASTI32X4 rcon01<>(SB), ZRC
	ZTEN_ROUNDS(ZROUND4x1)
	ZEVALROWS(0, Z4, X4, Z8, Z12)
	ZEVALROWS(32, Z5, X5, Z9, Z13)
	ADDQ $64, BX
	ADDQ $16, CX
	SUBQ $4, DX
	JMP  evalZTail

evalZ2:
	ZKEYS(0, Z0)
	ZEVALIN(0, 0, Z0, X8, Z8, Y12, Z12, Z4)
	VBROADCASTI32X4 rcon01<>(SB), ZRC
	ZTEN_ROUNDS(ZROUND2x1)
	ZEVALROWS(0, Z4, X4, Z8, Z12)
	ADDQ $32, BX
	ADDQ $8, CX
	SUBQ $2, DX
	JMP  evalZTail

evalY:
	VBROADCASTI128 rotMask<>(SB), YMASK

evalY4:
	CMPQ DX, $4
	JLT  evalY1
	YKEYS(0, Y0)
	YKEYS(4, Y1)
	YKEYS(8, Y2)
	YKEYS(12, Y3)
	YGATHER(0, X8, Y8)
	YGATHER(16, X9, Y9)
	YGATHER(32, X10, Y10)
	YGATHER(48, X11, Y11)
	VBROADCASTI128 rcon01<>(SB), YRC
	VPXOR Y0, Y8, Y4
	VPXOR Y1, Y9, Y5
	VPXOR Y2, Y10, Y6
	VPXOR Y3, Y11, Y7
	YTEN_ROUNDS(YROUND4x1)
	YEVALROWS(0, 0, Y4, X4, Y8)
	YEVALROWS(4, 16, Y5, X5, Y9)
	YEVALROWS(8, 32, Y6, X6, Y10)
	YEVALROWS(12, 48, Y7, X7, Y11)
	ADDQ $64, BX
	ADDQ $16, CX
	SUBQ $4, DX
	JMP  evalY4

evalY1:
	TESTQ DX, DX
	JEQ   evalDone
	YKEYS(0, Y0)
	YGATHER(0, X8, Y8)
	VBROADCASTI128 rcon01<>(SB), YRC
	VPXOR Y0, Y8, Y4
	YTEN_ROUNDS(YROUND1x1)
	YEVALROWS(0, 0, Y4, X4, Y8)
	ADDQ $16, BX
	ADDQ $4, CX
	DECQ DX
	JMP  evalY1

evalDone:
	VZEROUPPER
	RET
