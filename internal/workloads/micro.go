package workloads

import (
	"fmt"
	"math/rand"

	"haac/internal/aes128"
	"haac/internal/builder"
	"haac/internal/circuit"
)

// Micro-benchmarks for the §6.6 / Table 5 comparison against prior
// accelerators (FASE, MAXelerator, FPGA Overlay, GPU). Sizes follow the
// prior works' workloads: AES-128, Mult-32, Hamm-50, Million-8/2, Add-6,
// Add-16, 5x5Matx-8, 3x3Matx-16.

// Mult32 multiplies two 32-bit integers (FASE's Mult-32).
func Mult32() Workload {
	w := MatMult(1, 32)
	w.Name = "Mult-32"
	w.Description = "single 32x32-bit multiply"
	w.PlainOps = 1
	return w
}

// AddN adds two n-bit integers (FPGA Overlay's Add-6, prior work Add-16).
func AddN(n int) Workload {
	return Workload{
		Name:        fmt.Sprintf("Add-%d", n),
		Description: fmt.Sprintf("single %d-bit addition", n),
		PlainOps:    1,
		Build: func() *circuit.Circuit {
			b := builder.New()
			x := b.GarblerInputs(n)
			y := b.EvaluatorInputs(n)
			b.OutputWord(b.Add(x, y))
			return b.MustBuild()
		},
		Inputs: func(seed int64) ([]bool, []bool) {
			rng := rand.New(rand.NewSource(seed))
			return wordsToBits(randWords(rng, 1, n), n), wordsToBits(randWords(rng, 1, n), n)
		},
		Reference: func(g, e []bool) []bool {
			mask := uint64(1)<<uint(n) - 1
			s := (bitsToWords(g, n)[0] + bitsToWords(e, n)[0]) & mask
			return wordsToBits([]uint64{s}, n)
		},
	}
}

// Millionaire compares two n-bit wealth values: outputs 1 iff the
// garbler is richer (the classic Yao benchmark; FASE's Million-8,
// FPGA Overlay's Million-2).
func Millionaire(n int) Workload {
	return Workload{
		Name:        fmt.Sprintf("Million-%d", n),
		Description: fmt.Sprintf("millionaires' problem on %d-bit values", n),
		PlainOps:    1,
		Build: func() *circuit.Circuit {
			b := builder.New()
			x := b.GarblerInputs(n)
			y := b.EvaluatorInputs(n)
			b.Output(b.GtU(x, y))
			return b.MustBuild()
		},
		Inputs: func(seed int64) ([]bool, []bool) {
			rng := rand.New(rand.NewSource(seed))
			return wordsToBits(randWords(rng, 1, n), n), wordsToBits(randWords(rng, 1, n), n)
		},
		Reference: func(g, e []bool) []bool {
			return []bool{bitsToWords(g, n)[0] > bitsToWords(e, n)[0]}
		},
	}
}

// HammN is the Hamming workload at prior work's size (Hamm-50).
func HammN(bits int) Workload {
	w := Hamming(bits)
	w.Name = fmt.Sprintf("Hamm-%d", bits)
	return w
}

// MatMultMicro is an n×n width-bit matrix multiply named per Table 5
// ("5x5Matx-8", "3x3Matx-16").
func MatMultMicro(n, width int) Workload {
	w := MatMult(n, width)
	w.Name = fmt.Sprintf("%dx%dMatx-%d", n, n, width)
	return w
}

// AES128 encrypts one block: the garbler owns the 128-bit key, the
// evaluator the 128-bit plaintext. Key expansion happens inside the
// circuit. S-boxes use the GF(2^4) tower construction (~59 AND each),
// keeping the AND count comparable to the standard Bristol AES netlist
// prior accelerators were measured on.
func AES128() Workload {
	return Workload{
		Name:        "AES-128",
		Description: "one AES-128 block encryption, in-circuit key schedule",
		PlainOps:    160,
		Build:       buildAESCircuit,
		Inputs: func(seed int64) ([]bool, []bool) {
			rng := rand.New(rand.NewSource(seed))
			key := make([]bool, 128)
			pt := make([]bool, 128)
			for i := range key {
				key[i] = rng.Intn(2) == 1
				pt[i] = rng.Intn(2) == 1
			}
			return key, pt
		},
		Reference: func(g, e []bool) []bool {
			var key [16]byte
			var pt [16]byte
			for i := 0; i < 128; i++ {
				if g[i] {
					key[i/8] |= 1 << uint(i%8)
				}
				if e[i] {
					pt[i/8] |= 1 << uint(i%8)
				}
			}
			ct := make([]byte, 16)
			aes128.EncryptBlock(&key, ct, pt[:])
			out := make([]bool, 128)
			for i := 0; i < 128; i++ {
				out[i] = ct[i/8]>>uint(i%8)&1 == 1
			}
			return out
		},
	}
}

// buildAESCircuit constructs the full AES-128 encryption circuit.
// Bytes are represented as 8-wire little-endian words; the 16-byte state
// is column-major as in FIPS-197 (byte index 4*c+r).
func buildAESCircuit() *circuit.Circuit {
	b := builder.New()
	keyBits := b.GarblerInputs(128)
	ptBits := b.EvaluatorInputs(128)
	rks := aesKeySchedule(b, keyBits)
	out := aesEncryptBlock(b, rks, ptBits)
	b.OutputWord(out)
	return b.MustBuild()
}

// aesKeySchedule expands the 128-bit key into the eleven round keys,
// each sixteen 8-wire bytes.
func aesKeySchedule(b *builder.B, keyBits builder.Word) [][]builder.Word {
	key := make([]builder.Word, 16)
	for i := range key {
		key[i] = keyBits[i*8 : (i+1)*8]
	}
	roundKeys := make([][]builder.Word, 11)
	roundKeys[0] = key
	rcon := byte(1)
	for r := 1; r <= 10; r++ {
		prev := roundKeys[r-1]
		rk := make([]builder.Word, 16)
		var t [4]builder.Word
		for i := 0; i < 4; i++ {
			t[i] = b.SBox(prev[12+(i+1)%4])
		}
		t[0] = b.XORWords(t[0], b.ConstWord(uint64(rcon), 8))
		for i := 0; i < 4; i++ {
			rk[i] = b.XORWords(prev[i], t[i])
		}
		for c := 1; c < 4; c++ {
			for i := 0; i < 4; i++ {
				rk[4*c+i] = b.XORWords(rk[4*(c-1)+i], prev[4*c+i])
			}
		}
		roundKeys[r] = rk
		rcon = gf256Double(rcon)
	}
	return roundKeys
}

// aesEncryptBlock runs the ten AES-128 rounds over one 128-bit block.
func aesEncryptBlock(b *builder.B, roundKeys [][]builder.Word, ptBits builder.Word) builder.Word {
	state := make([]builder.Word, 16)
	for i := range state {
		state[i] = ptBits[i*8 : (i+1)*8]
	}
	xorBytes := func(x, y []builder.Word) []builder.Word {
		out := make([]builder.Word, len(x))
		for i := range x {
			out[i] = b.XORWords(x[i], y[i])
		}
		return out
	}
	xtimeW := func(x builder.Word) builder.Word {
		out := make(builder.Word, 8)
		hi := x[7]
		out[0] = hi
		out[1] = b.XOR(x[0], hi)
		out[2] = x[1]
		out[3] = b.XOR(x[2], hi)
		out[4] = b.XOR(x[3], hi)
		out[5] = x[4]
		out[6] = x[5]
		out[7] = x[6]
		return out
	}
	state = xorBytes(state, roundKeys[0])
	for r := 1; r <= 10; r++ {
		for i := range state {
			state[i] = b.SBox(state[i])
		}
		ns := make([]builder.Word, 16)
		for c := 0; c < 4; c++ {
			for i := 0; i < 4; i++ {
				ns[4*c+i] = state[4*((c+i)%4)+i]
			}
		}
		state = ns
		if r < 10 {
			ms := make([]builder.Word, 16)
			for c := 0; c < 4; c++ {
				a0, a1, a2, a3 := state[4*c], state[4*c+1], state[4*c+2], state[4*c+3]
				x0, x1, x2, x3 := xtimeW(a0), xtimeW(a1), xtimeW(a2), xtimeW(a3)
				ms[4*c+0] = b.XORWords(b.XORWords(x0, b.XORWords(x1, a1)), b.XORWords(a2, a3))
				ms[4*c+1] = b.XORWords(b.XORWords(a0, x1), b.XORWords(b.XORWords(x2, a2), a3))
				ms[4*c+2] = b.XORWords(b.XORWords(a0, a1), b.XORWords(x2, b.XORWords(x3, a3)))
				ms[4*c+3] = b.XORWords(b.XORWords(b.XORWords(x0, a0), a1), b.XORWords(a2, x3))
			}
			state = ms
		}
		state = xorBytes(state, roundKeys[r])
	}
	out := make(builder.Word, 0, 128)
	for _, by := range state {
		out = append(out, by...)
	}
	return out
}

func gf256Double(x byte) byte {
	if x&0x80 != 0 {
		return x<<1 ^ 0x1b
	}
	return x << 1
}

// MicroSuite returns the Table 5 micro-benchmarks in row order.
func MicroSuite() []Workload {
	return []Workload{
		MatMultMicro(5, 8),
		MatMultMicro(3, 16),
		AES128(),
		Mult32(),
		HammN(50),
		Millionaire(8),
		AddN(6),
		AddN(16),
		Millionaire(2),
	}
}
