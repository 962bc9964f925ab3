// Package ot implements 1-out-of-2 oblivious transfer, the primitive the
// GCs protocol uses to deliver the evaluator's input labels without the
// garbler learning the evaluator's inputs (§2.1).
//
// Three on-demand implementations are provided:
//
//   - DH: a semi-honest Bellare–Micali style OT over NIST P-256
//     (stdlib crypto/elliptic). Appropriate for the repository's threat
//     model (semi-honest, like the paper's EMP setting).
//   - Insecure: a direct transfer where the receiver reveals its choice
//     bits. It exercises the same protocol plumbing at zero cost and is
//     used by large-scale tests and simulations; never use it for real
//     secrets.
//   - IKNP: OT extension — 128 DH base OTs stretched to the whole batch
//     with symmetric crypto (iknp.go).
//
// A fourth mode, Pooled, is not an on-demand protocol: Pool (pool.go)
// precomputes random-OT correlations ahead of time and derandomizes them
// against the real messages and choices in a single XOR round online,
// removing the base-OT latency floor from the serving path.
//
// Both sides operate over an io.ReadWriter carrying length-free fixed-
// format messages, batched for the whole choice vector.
package ot

import (
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"

	"haac/internal/label"
)

// Pair is the sender's two messages for one transfer: the receiver
// learns exactly one of them.
type Pair struct {
	M0, M1 label.L
}

// Protocol selects an OT implementation.
type Protocol uint8

const (
	// DH is the Diffie-Hellman based semi-honest OT.
	DH Protocol = iota
	// Insecure transfers choices in the clear (testing/simulation only).
	Insecure
	// IKNP is OT extension: 128 DH base OTs stretched to the whole
	// batch with symmetric crypto (see iknp.go). The right choice for
	// large evaluator inputs.
	IKNP
	// Pooled consumes precomputed random-OT correlations from a Pool
	// with one choice-correction XOR round online. It is session state,
	// not an on-demand protocol: Send/Receive reject it — callers go
	// through Pool.SendDerand/Pool.ReceiveDerand instead. The value
	// appears on the wire in the session hello (requesting the pooled
	// tier) and in the per-run header (marking a pool-hit run).
	Pooled
)

const (
	coordSize = 32              // P-256 coordinate or scalar, big-endian
	pointSize = 1 + 2*coordSize // uncompressed P-256 point
)

// baseOTRounds counts base-OT establishment rounds: one per DH batch on
// either side (dhSend/dhReceive). IKNP pays one round per extension,
// pool setup pays one round per connection, and the pooled online path
// pays none — the counter is the test hook that proves it, mirroring
// circuit.PlanBuilds.
var baseOTRounds atomic.Uint64

// BaseOTRounds returns the process-wide number of DH base-OT batch
// rounds performed so far. Benchmarks read it before and after a
// steady-state window to assert the pooled path never touches a base
// OT.
func BaseOTRounds() uint64 { return baseOTRounds.Load() }

// Send runs the sender side for a batch of pairs. Pooled is rejected:
// derandomized sends go through Pool.SendDerand, which holds the
// precomputed correlations an on-demand call cannot have.
func Send(conn io.ReadWriter, proto Protocol, pairs []Pair) error {
	switch proto {
	case DH:
		return dhSend(conn, pairs)
	case Insecure:
		return insecureSend(conn, pairs)
	case IKNP:
		return iknpSend(conn, DH, pairs)
	case Pooled:
		return fmt.Errorf("ot: pooled OT needs a session Pool (use Pool.SendDerand)")
	}
	return fmt.Errorf("ot: unknown protocol %d", proto)
}

// Receive runs the receiver side for a batch of choice bits, returning
// the chosen message per transfer.
func Receive(conn io.ReadWriter, proto Protocol, choices []bool) ([]label.L, error) {
	return ReceiveBitset(conn, proto, BitsetFromBools(choices))
}

// ReceiveBitset is Receive with a packed choice vector, which every
// protocol now consumes directly: IKNP's hot path works on 64-choice
// words, and the per-transfer base protocols index bits in place — a
// pool refill of 16384 correlations no longer unpacks a 16 KiB bool
// slice per chunk. Results are identical to Receive on the unpacked
// bools. Pooled is rejected; use Pool.ReceiveDerand.
func ReceiveBitset(conn io.ReadWriter, proto Protocol, choices Bitset) ([]label.L, error) {
	switch proto {
	case DH:
		return dhReceive(conn, choices)
	case Insecure:
		return insecureReceive(conn, choices)
	case IKNP:
		return iknpReceive(conn, DH, choices)
	case Pooled:
		return nil, fmt.Errorf("ot: pooled OT needs a session Pool (use Pool.ReceiveDerand)")
	}
	return nil, fmt.Errorf("ot: unknown protocol %d", proto)
}

// --- insecure transfer ---

func insecureSend(conn io.ReadWriter, pairs []Pair) error {
	choice := make([]byte, len(pairs))
	if _, err := io.ReadFull(conn, choice); err != nil {
		return fmt.Errorf("ot: reading choices: %w", err)
	}
	// One batched write: per-label writes would each become their own
	// frame on a framed transport, tripling the phase's wire overhead
	// and multiplying its corruption surface. The byte stream is
	// identical either way.
	out := make([]byte, label.Size*len(pairs))
	for i, p := range pairs {
		m := p.M0
		if choice[i] == 1 {
			m = p.M1
		}
		m.Put(out[i*label.Size:])
	}
	if _, err := conn.Write(out); err != nil {
		return fmt.Errorf("ot: sending messages: %w", err)
	}
	return nil
}

func insecureReceive(conn io.ReadWriter, choices Bitset) ([]label.L, error) {
	n := choices.Len()
	choice := make([]byte, n)
	for i := range choice {
		choice[i] = byte(choices.Bit(i))
	}
	if _, err := conn.Write(choice); err != nil {
		return nil, fmt.Errorf("ot: sending choices: %w", err)
	}
	out := make([]label.L, n)
	buf := make([]byte, label.Size)
	for i := range out {
		if _, err := io.ReadFull(conn, buf); err != nil {
			return nil, fmt.Errorf("ot: reading message %d: %w", i, err)
		}
		out[i] = label.FromBytes(buf)
	}
	return out, nil
}

// --- Diffie-Hellman OT (Bellare–Micali, semi-honest) ---
//
// Sender: a ←$ Z_q, A = aG. Receiver with choice c: b ←$ Z_q,
// B = bG + c·A. Sender derives k0 = H(aB), k1 = H(a(B−A)) and sends
// m0⊕k0, m1⊕k1; the receiver knows k_c = H(bA) and nothing about the
// other key (CDH).
//
// The scalar multiplications are scheduled around the one round trip
// instead of in series. The sender computes k1 as aB − aA, which is the
// same point as a(B−A): it takes −aA once, right after writing A and
// while the receiver is still building its B points, so a transfer costs
// one multiplication (aB) and one point addition instead of two
// multiplications. The receiver derives every bA as soon as its B points
// are written — they depend on nothing the sender sends after A — so that
// work overlaps the sender's instead of following its ciphertexts. Points,
// keys and ciphertexts are byte for byte those of the textbook schedule,
// and a peer running that schedule interoperates.

func dhSend(conn io.ReadWriter, pairs []Pair) error {
	baseOTRounds.Add(1)
	curve := elliptic.P256()
	params := curve.Params()
	a, err := rand.Int(rand.Reader, params.N)
	if err != nil {
		return fmt.Errorf("ot: sampling scalar: %w", err)
	}
	aBytes := a.Bytes()
	ax, ay := curve.ScalarBaseMult(aBytes)
	var aPoint [pointSize]byte
	putPoint(aPoint[:], ax, ay)
	if _, err := conn.Write(aPoint[:]); err != nil {
		return fmt.Errorf("ot: sending A: %w", err)
	}
	// −aA, so that k1 = aB + (−aA) costs one addition per transfer.
	aax, aay := curve.ScalarMult(ax, ay, aBytes)
	aay.Sub(params.P, aay)

	// Phase 1: read every B point. Keeping the phases strictly ordered
	// (all B, then all ciphertexts) avoids lockstep deadlock over
	// unbuffered transports such as net.Pipe.
	all := make([]byte, pointSize*len(pairs))
	if _, err := io.ReadFull(conn, all); err != nil {
		return fmt.Errorf("ot: reading B points: %w", err)
	}
	// Phase 2: derive keys and send all ciphertext pairs.
	out := make([]byte, 2*label.Size*len(pairs))
	for i, p := range pairs {
		bx, by := elliptic.Unmarshal(curve, all[i*pointSize:(i+1)*pointSize])
		if bx == nil {
			return fmt.Errorf("ot: invalid point B[%d]", i)
		}
		k0x, k0y := curve.ScalarMult(bx, by, aBytes)
		k1x, k1y := curve.Add(k0x, k0y, aax, aay) // aB − aA = a(B − A)

		e0 := p.M0.Xor(kdf(k0x, k0y, uint64(i)))
		e1 := p.M1.Xor(kdf(k1x, k1y, uint64(i)))
		msg := out[i*2*label.Size : (i+1)*2*label.Size]
		e0.Put(msg[0:16])
		e1.Put(msg[16:32])
	}
	if _, err := conn.Write(out); err != nil {
		return fmt.Errorf("ot: sending ciphertexts: %w", err)
	}
	return nil
}

func dhReceive(conn io.ReadWriter, choices Bitset) ([]label.L, error) {
	baseOTRounds.Add(1)
	curve := elliptic.P256()
	ptBuf := make([]byte, pointSize)
	if _, err := io.ReadFull(conn, ptBuf); err != nil {
		return nil, fmt.Errorf("ot: reading A: %w", err)
	}
	ax, ay := elliptic.Unmarshal(curve, ptBuf)
	if ax == nil {
		return nil, fmt.Errorf("ot: invalid point A")
	}

	n := choices.Len()
	// The b scalars, zero-padded to coordSize bytes each.
	scalars := make([]byte, coordSize*n)
	// One batched write for the B points, mirroring the sender's
	// batched ciphertext phase: identical bytes, far fewer frames on a
	// framed transport.
	bPoints := make([]byte, pointSize*n)
	for i := 0; i < n; i++ {
		b, err := rand.Int(rand.Reader, curve.Params().N)
		if err != nil {
			return nil, fmt.Errorf("ot: sampling scalar: %w", err)
		}
		bBytes := b.FillBytes(scalars[i*coordSize : (i+1)*coordSize])
		bx, by := curve.ScalarBaseMult(bBytes)
		if choices.Bit(i) == 1 {
			bx, by = curve.Add(bx, by, ax, ay)
		}
		putPoint(bPoints[i*pointSize:], bx, by)
	}
	if _, err := conn.Write(bPoints); err != nil {
		return nil, fmt.Errorf("ot: sending B points: %w", err)
	}

	// k_c = H(bA) needs nothing more from the sender: derive every key
	// while the sender computes its ciphertexts.
	out := make([]label.L, n)
	for i := range out {
		kx, ky := curve.ScalarMult(ax, ay, scalars[i*coordSize:(i+1)*coordSize])
		out[i] = kdf(kx, ky, uint64(i))
	}
	cts := make([]byte, 2*label.Size*n)
	if _, err := io.ReadFull(conn, cts); err != nil {
		return nil, fmt.Errorf("ot: reading ciphertexts: %w", err)
	}
	for i := range out {
		off := (2*i + choices.Bit(i)) * label.Size
		out[i] = out[i].Xor(label.FromBytes(cts[off : off+label.Size]))
	}
	return out, nil
}

// putPoint writes (x, y) into dst in the uncompressed encoding
// elliptic.Marshal produces: 0x04 ‖ x ‖ y, each coordinate big-endian
// and zero-padded to coordSize bytes.
func putPoint(dst []byte, x, y *big.Int) {
	dst[0] = 4
	x.FillBytes(dst[1 : 1+coordSize])
	y.FillBytes(dst[1+coordSize : pointSize])
}

// kdf hashes a curve point and transfer index into a label-sized key:
// the first 16 bytes of SHA-256(0x04 ‖ x ‖ y ‖ LE64(idx)). The input is
// built on the stack, so a call allocates nothing.
func kdf(x, y *big.Int, idx uint64) label.L {
	var buf [pointSize + 8]byte
	putPoint(buf[:], x, y)
	binary.LittleEndian.PutUint64(buf[pointSize:], idx)
	sum := sha256.Sum256(buf[:])
	return label.FromBytes(sum[:16])
}
