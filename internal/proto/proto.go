// Package proto runs the two-party garbled-circuits protocol over any
// net.Conn-like transport: the Garbler garbles and streams tables while
// the Evaluator consumes them, with the evaluator's input labels
// delivered by oblivious transfer. This is the repository's stand-in for
// the EMP Toolkit 2PC runtime the paper builds on.
//
// There is one execution engine: GarblerSession and EvaluatorSession
// drive gc's plan runners over a compiled circuit.Plan. The garbler's
// tables leave through the session's sender goroutine, as the bytes of
// the runner's table arena, while later segments are still being
// garbled (sender.go); the evaluator reads them straight into its own
// arena. RunGarbler and RunEvaluator are one-run wrappers around a
// session.
//
// Wire format (little-endian):
//
//	header:  magic u32 | version u8 | otProto u8 | nGates u64 | nWires u64 |
//	         nGarbler u32 | nEval u32 | hasConst u8 | nOutputs u32 | nTables u64
//	labels:  16 bytes each
//	tables:  32 bytes each, streamed in gate order
//	decode:  one byte per output bit (0/1)
//	result:  one byte per output bit, sent back by the evaluator
//
// Both parties must hold the same circuit; the header fields are checked
// so mismatched circuits fail fast instead of producing garbage.
package proto

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"haac/internal/circuit"
	"haac/internal/gc"
	"haac/internal/label"
	"haac/internal/ot"
)

const (
	magic   = 0x48414143 // "HAAC"
	version = 1
)

// Options configures a protocol run.
type Options struct {
	// Hasher is the garbling hash; both parties must agree. Defaults to
	// the paper's re-keyed construction.
	Hasher gc.Hasher
	// OT selects the oblivious-transfer protocol (default ot.DH).
	OT ot.Protocol
	// Seed seeds the garbler's deterministic label source when nonzero;
	// zero draws a random seed. Tests use fixed seeds.
	Seed uint64
	// Stats, when non-nil, collects transfer metrics for the run: the
	// bytes through the session's transport and, on the garbler, where
	// the table stream's time went.
	Stats *Stats
	// Workers is the width of the plan engine: <= 1 garbles and
	// evaluates every schedule step on the calling goroutine, larger
	// values split the AND gates of each step that is wide enough to
	// pay for it across that many pool workers. This
	// is the one worker-count rule in the repository — the serving
	// layer, the public RunOptions and the gc plan runners all follow
	// it, so a zero-valued config is always sequential. The wire bytes
	// do not depend on it; each party picks its own width.
	Workers int
	// Plan is the compiled plan the run executes over; it must have been
	// compiled from the same circuit passed to RunGarbler/RunEvaluator/
	// NewEvaluatorSession. When nil those entry points compile one per
	// call (circuit.NewPlan, about the cost of two garbles) — share
	// one plan across runs, or hold a session, to amortize it.
	Plan *circuit.Plan
	// Integrity wraps the run's entire byte stream — both directions —
	// in length+CRC32C frames (see FramedConn), so transport corruption
	// surfaces as a typed ErrIntegrity instead of garbage outputs. Both
	// parties must agree: the serving layer negotiates it in its
	// handshake; one-shot callers coordinate out of band. Off by default,
	// keeping the legacy byte-identical wire.
	Integrity bool
}

func (o *Options) fill() error {
	if o.Hasher == nil {
		o.Hasher = gc.RekeyedHasher{}
	}
	if o.Seed == 0 {
		l, err := label.Rand()
		if err != nil {
			return err
		}
		o.Seed = l.Lo
	}
	return nil
}

// planFor returns the plan a run of c executes over: Options.Plan when
// set (it must have been compiled from c), a freshly compiled one
// otherwise.
func (o *Options) planFor(c *circuit.Circuit) (*circuit.Plan, error) {
	if o.Plan == nil {
		p, err := circuit.NewPlan(c)
		if err != nil {
			return nil, fmt.Errorf("proto: %w", err)
		}
		return p, nil
	}
	if o.Plan.Circuit != c {
		return nil, fmt.Errorf("proto: Options.Plan was compiled from a different circuit")
	}
	return o.Plan, nil
}

// oneShot prepares a one-run wrapper's transport and session options.
// Options.Integrity frames the whole stream here rather than in the
// session (the serving layer negotiates framing itself); bytes are then
// counted beneath the frames, so the session must not count them again.
func (o Options) oneShot(conn io.ReadWriter) (io.ReadWriter, Options) {
	if o.Integrity {
		conn = NewFramedConn(Instrument(conn, o.Stats))
		o.Stats = nil
	}
	return conn, o
}

type header struct {
	Magic    uint32
	Version  uint8
	OTProto  uint8
	NGates   uint64
	NWires   uint64
	NGarbler uint32
	NEval    uint32
	HasConst uint8
	NOutputs uint32
	NTables  uint64
}

// headerSize is the wire size of the packed header.
const headerSize = 43

// encode packs the header into b (len >= headerSize), byte-identical to
// binary.Write of the struct — TestHeaderCodecMatchesBinary pins the
// equivalence. The manual codec exists so the reusable protocol
// sessions can frame runs without binary's per-call reflection
// allocations.
func (h *header) encode(b []byte) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], h.Magic)
	b[4] = h.Version
	b[5] = h.OTProto
	le.PutUint64(b[6:], h.NGates)
	le.PutUint64(b[14:], h.NWires)
	le.PutUint32(b[22:], h.NGarbler)
	le.PutUint32(b[26:], h.NEval)
	b[30] = h.HasConst
	le.PutUint32(b[31:], h.NOutputs)
	le.PutUint64(b[35:], h.NTables)
}

// decodeHeader unpacks a header encoded by encode / binary.Write.
func decodeHeader(b []byte) header {
	le := binary.LittleEndian
	return header{
		Magic:    le.Uint32(b[0:]),
		Version:  b[4],
		OTProto:  b[5],
		NGates:   le.Uint64(b[6:]),
		NWires:   le.Uint64(b[14:]),
		NGarbler: le.Uint32(b[22:]),
		NEval:    le.Uint32(b[26:]),
		HasConst: b[30],
		NOutputs: le.Uint32(b[31:]),
		NTables:  le.Uint64(b[35:]),
	}
}

// checkHeaderWant validates a run header received off the wire against
// the expected header of the local circuit (a session keeps one per
// connection so validation stays allocation- and scan-free per run).
// Every failure is typed ErrMalformedFrame: the header either is not a
// HAAC frame at all (magic/version/OT byte) or contradicts the circuit
// the parties agreed on — on a digest-verified session the latter can
// only mean stream corruption, so a retrying client treats both as
// transport damage. want's OTProto is ignored: the garbler picks the OT
// protocol and the evaluator follows, as long as the byte names a
// protocol that exists.
func checkHeaderWant(h, want header) error {
	if h.Magic != magic {
		return fmt.Errorf("proto: %w: bad header magic %#x", ErrMalformedFrame, h.Magic)
	}
	if h.Version != version {
		return fmt.Errorf("proto: %w: header version %d, want %d", ErrMalformedFrame, h.Version, version)
	}
	switch ot.Protocol(h.OTProto) {
	case ot.DH, ot.Insecure, ot.IKNP, ot.Pooled:
	default:
		return fmt.Errorf("proto: %w: unknown OT protocol %d", ErrMalformedFrame, h.OTProto)
	}
	want.OTProto = h.OTProto
	if h != want {
		return fmt.Errorf("proto: %w: circuit mismatch: got %+v, want %+v", ErrMalformedFrame, h, want)
	}
	return nil
}

func headerFor(c *circuit.Circuit, opts Options) header {
	and, _, _ := c.CountOps()
	h := header{
		Magic:    magic,
		Version:  version,
		OTProto:  uint8(opts.OT),
		NGates:   uint64(len(c.Gates)),
		NWires:   uint64(c.NumWires),
		NGarbler: uint32(c.GarblerInputs),
		NEval:    uint32(c.EvaluatorInputs),
		NOutputs: uint32(len(c.Outputs)),
		NTables:  uint64(and),
	}
	if c.HasConst {
		h.HasConst = 1
	}
	return h
}

// sendActiveInputs writes the garbler's active labels and, if present,
// the constant labels in wire order: every label is encoded into one
// pooled slab and shipped with a single Write.
func sendActiveInputs(w *bufio.Writer, c *circuit.Circuit, zeros []label.L, r label.L, garblerBits []bool) error {
	n := len(garblerBits)
	if c.HasConst {
		n += 2
	}
	if n == 0 {
		return nil
	}
	bp := getSlab(n * label.Size)
	defer putSlab(bp)
	slab := (*bp)[:n*label.Size]
	for i, v := range garblerBits {
		l := zeros[i]
		if v {
			l = l.Xor(r)
		}
		l.Put(slab[i*label.Size:])
	}
	if c.HasConst {
		zeros[c.Const0].Put(slab[len(garblerBits)*label.Size:])
		zeros[c.Const1].Xor(r).Put(slab[(len(garblerBits)+1)*label.Size:])
	}
	if _, err := w.Write(slab); err != nil {
		return wrapPeer("sending garbler labels", err)
	}
	return nil
}

// RunGarbler executes the garbler role for one run and returns the
// plaintext outputs reported back by the evaluator: it opens a
// GarblerSession over conn (compiling a plan unless Options.Plan
// carries one), runs it once and closes it.
func RunGarbler(conn io.ReadWriter, c *circuit.Circuit, garblerBits []bool, opts Options) ([]bool, error) {
	opts.Stats.begin()
	defer opts.Stats.end()
	var err error
	if opts.Plan, err = opts.planFor(c); err != nil {
		return nil, err
	}
	s, err := NewGarblerSession(opts.oneShot(conn))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Run(garblerBits)
}

// RunEvaluator executes the evaluator role for one run and returns the
// plaintext outputs (also reported back to the garbler) — the one-run
// wrapper around an EvaluatorSession, which compiles the plan unless
// Options.Plan carries one.
func RunEvaluator(conn io.ReadWriter, c *circuit.Circuit, evalBits []bool, opts Options) ([]bool, error) {
	opts.Stats.begin()
	defer opts.Stats.end()
	conn, opts = opts.oneShot(conn)
	s, err := NewEvaluatorSession(conn, c, opts)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Run(evalBits)
}

// readWriter pairs the buffered reader with the raw writer so OT can run
// mid-stream without losing buffered bytes.
type readWriter struct {
	io.Reader
	io.Writer
}
