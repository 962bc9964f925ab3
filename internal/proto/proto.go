// Package proto runs the two-party garbled-circuits protocol over any
// net.Conn-like transport: the Garbler garbles and streams tables while
// the Evaluator consumes them, with the evaluator's input labels
// delivered by oblivious transfer. This is the repository's stand-in for
// the EMP Toolkit 2PC runtime the paper builds on.
//
// There is one execution engine: GarblerSession and EvaluatorSession
// drive gc's plan runners over a compiled circuit.Plan. A garbler
// session garbles on a goroutine of its own, one run ahead of the runs
// asked for, into the second of two runners; each run writes its own
// tables, as the bytes of the runner's table arena, while later segments
// may still be being garbled (sender.go).
// The evaluator reads them straight into its own arena. RunGarbler and
// RunEvaluator are one-run wrappers around a session.
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
// A run's order: header and garbler labels in one flush, then the
// evaluator's inputs by on-demand OT, then tables, decode bits and
// result. A run served from attached ot.Pools (both parties decide from
// their own lockstep levels, ot.Pool.Decide) moves the OT ahead: the
// evaluator's choice correction (0xD5 | count u32 | e bits) goes first,
// and the masked pairs (32 bytes per evaluator input) follow the labels
// in the garbler's first flush — so the evaluator sends and then only
// reads until its result. The bytes are written and read in pieces of
// ot.DerandPiece transfers: a batch of one piece goes as above, one
// correction write and one flush; a bigger one has the evaluator write
// the correction's head, then each piece's e bits from its pool
// goroutine, while the garbler, once it has read the head, begins the
// run, writes header and labels, and answers each piece's e bits with
// that piece's masked pairs as they arrive (the first answer in the
// labels' flush) — so the evaluator reads the first answers while the
// garbler writes the later ones. The header's OT byte says ot.Pooled
// exactly then; an evaluator whose own decision disagrees fails the run
// with ErrMalformedFrame. A pooled run that leaves its pool well below
// the pool's target also carries an in-run fill (the same Decide, no
// wire field): once the masked pairs are in, the evaluator writes the
// fill's masked columns while the tables stream back, and its result
// follows them:
//
//	evaluator → garbler: correction | fill columns | result
//	garbler → evaluator: header | labels | masked pairs | tables | decode
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
	// Stats, when non-nil, collects transfer metrics: an
	// EvaluatorSession and the one-run wrappers count the bytes through
	// their transport, and a garbler records where its table stream's
	// time went. A GarblerSession counts no bytes — the serving layer
	// counts its connections itself.
	Stats *Stats
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

// oneShot prepares a one-run wrapper's transport: Options.Stats counts
// its bytes, beneath the frames when Options.Integrity frames the whole
// stream here rather than in the session (the serving layer negotiates
// framing itself). An evaluator session must then not count them again.
func (o Options) oneShot(conn io.ReadWriter) io.ReadWriter {
	conn = Instrument(conn, o.Stats)
	if o.Integrity {
		conn = NewFramedConn(conn)
	}
	return conn
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
		NWires:   uint64(c.NumWires()),
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
// carries one), runs it once and closes it. Its session garbles no run
// ahead: it draws one run's labels and no more.
func RunGarbler(conn io.ReadWriter, c *circuit.Circuit, garblerBits []bool, opts Options) ([]bool, error) {
	var err error
	if opts.Plan, err = opts.planFor(c); err != nil {
		return nil, err
	}
	s, err := newGarblerSession(opts.oneShot(conn), opts, true)
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
	conn = opts.oneShot(conn)
	st := opts.Stats
	opts.Stats = nil // counted by oneShot
	s, err := NewEvaluatorSession(conn, c, opts)
	if err != nil {
		return nil, err
	}
	if st != nil {
		s.stats = st // its table reads are timed there all the same
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
