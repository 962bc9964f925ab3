package proto

import (
	"bufio"
	"fmt"
	"io"

	"haac/internal/circuit"
	"haac/internal/gc"
	"haac/internal/label"
	"haac/internal/ot"
)

// Protocol sessions: the per-connection endpoints every run goes
// through. A GarblerSession/EvaluatorSession pair owns the run state
// for the lifetime of a connection: the buffered writer/reader, the
// garbler's table-sender goroutine, the packed header, OT pair scratch,
// result buffers and a reusable plan runner all persist, so a
// steady-state run allocates nothing on either side (on-demand OT for
// evaluator inputs is the one inherently allocating step — its cost is
// public-key crypto, not transport; a run served from an attached
// ot.Pool avoids even that). RunGarbler and RunEvaluator build a session
// for a single run and pay that setup — and, without Options.Plan, a
// plan compile — every call; a process answering many requests holds
// sessions instead.

// GarblerSession is a reusable garbler endpoint bound to one connection
// and one precompiled plan. It is not safe for concurrent use; a server
// pools sessions and gives each connection its own. It owns a goroutine
// (its table sender), so it must be Closed.
type GarblerSession struct {
	opts  Options
	c     *circuit.Circuit
	rw    io.ReadWriter
	w     *bufio.Writer
	pg    *gc.PlanGarbler
	src   *label.Source
	tx    *tableSender
	emit  func(tables []gc.Material) error
	hdr   [headerSize]byte
	pairs []ot.Pair
	res   []byte
	out   []bool

	// Pooled OT: when a pool is attached and holds enough correlations,
	// Run marks the per-run header ot.Pooled and derandomizes instead of
	// running opts.OT on demand — the evaluator follows the header, so
	// both sides consume their pools in lockstep.
	pool       *ot.Pool
	lastPooled bool

	// Resume scratch: garbling is a pure function of the label-source
	// state at Begin, so ResumeRun replays a broken run's table stream
	// from a recorded seed without disturbing s.src (whose draws define
	// the live runs).
	resumeSrc *label.Source
}

// NewGarblerSession builds a garbler session over conn. Options.Plan is
// required (serving always amortizes through plans); Workers selects
// the plan engine width. A zero Options.Seed draws a random one; the
// session's label source then advances across runs, so every run
// garbles with fresh labels.
func NewGarblerSession(conn io.ReadWriter, opts Options) (*GarblerSession, error) {
	if opts.Plan == nil {
		return nil, fmt.Errorf("proto: GarblerSession requires Options.Plan")
	}
	if err := opts.fill(); err != nil {
		return nil, err
	}
	c := opts.Plan.Circuit
	s := &GarblerSession{
		opts:  opts,
		c:     c,
		w:     bufio.NewWriterSize(io.Discard, 1<<16),
		pg:    gc.NewPlanGarbler(opts.Plan, opts.Hasher, opts.Workers),
		src:   label.NewSource(opts.Seed),
		pairs: make([]ot.Pair, c.EvaluatorInputs),
		res:   make([]byte, len(c.Outputs)),
		out:   make([]bool, len(c.Outputs)),
	}
	// The run only says how far its table arena is final; the sender
	// does the writing (sender.go).
	s.emit = func(tables []gc.Material) error { return s.tx.emitted(len(tables)) }
	s.Reset(conn, opts.OT)
	s.tx = newTableSender(opts.Stats)
	return s, nil
}

// PendingSeed returns the label-source state the next Run will begin
// from. A server records it before starting a run so a broken transfer
// can later be replayed from the same deterministic stream with
// ResumeRun — by any pooled runner sharing the hasher and plan, not
// just this one.
func (s *GarblerSession) PendingSeed() uint64 { return s.src.State() }

// Reset rebinds the session to a new connection and OT protocol,
// keeping the plan runner, label source and scratch. A server pools
// sessions per circuit and Resets one for each accepted connection.
func (s *GarblerSession) Reset(conn io.ReadWriter, otp ot.Protocol) {
	s.opts.OT = otp
	s.rw = instrument(conn, &s.opts)
	s.w.Reset(s.rw)
	h := headerFor(s.c, s.opts)
	h.encode(s.hdr[:])
	// A pool is bound to the old connection's base-OT state; the new
	// connection starts without one until the peer negotiates a refill.
	s.pool = nil
	s.lastPooled = false
}

// SetPool attaches a sender pool whose correlations future Runs may
// consume. The pool must have been set up over this session's current
// connection; Reset detaches it.
func (s *GarblerSession) SetPool(p *ot.Pool) { s.pool = p }

// LastRunPooled reports whether the most recent Run served the
// evaluator's labels from the pool (a hit) rather than falling back to
// the on-demand protocol — the serving layer's hit/miss accounting
// hook.
func (s *GarblerSession) LastRunPooled() bool { return s.lastPooled }

// Close stops the sender goroutine and releases the plan runner's
// worker pool. No Run may be in progress.
func (s *GarblerSession) Close() {
	s.tx.close()
	s.pg.Close()
}

// Run plays one full garbler run: header, active input labels, OT,
// segment-streamed tables, decode bits, and the evaluator's reported
// result. The returned slice is reused by the next Run.
func (s *GarblerSession) Run(garblerBits []bool) ([]bool, error) {
	c := s.c
	if len(garblerBits) != c.GarblerInputs {
		return nil, fmt.Errorf("proto: got %d garbler bits, want %d", len(garblerBits), c.GarblerInputs)
	}
	// Hit/miss decision happens before the header leaves: a pool with
	// enough correlations marks the run pooled, a short one falls back
	// to the on-demand protocol for this run only (a miss, not an
	// error). The header's OT byte tells the evaluator which path this
	// run takes, keeping both pools in lockstep.
	otp := s.opts.OT
	s.lastPooled = s.pool != nil && c.EvaluatorInputs > 0 && s.pool.Level() >= c.EvaluatorInputs
	if s.lastPooled {
		otp = ot.Pooled
	}
	s.hdr[5] = byte(otp)
	if _, err := s.w.Write(s.hdr[:]); err != nil {
		return nil, wrapPeer("writing header", err)
	}
	s.pg.Begin(s.src)
	zeros, r := s.pg.InputZeros(), s.pg.R()
	if err := sendActiveInputs(s.w, c, zeros, r, garblerBits); err != nil {
		return nil, err
	}
	if err := s.w.Flush(); err != nil {
		return nil, wrapPeer("sending garbler labels", err)
	}
	if c.EvaluatorInputs > 0 {
		off := c.GarblerInputs
		for i := range s.pairs {
			s.pairs[i] = ot.Pair{M0: zeros[off+i], M1: zeros[off+i].Xor(r)}
		}
		var err error
		if otp == ot.Pooled {
			err = s.pool.SendDerand(s.rw, s.pairs)
		} else {
			err = ot.Send(s.rw, otp, s.pairs)
		}
		if err != nil {
			return nil, wrapPeer("OT", err)
		}
	}
	return s.streamRun(0)
}

// streamRun garbles the run Begin opened, streaming its tables from
// offset from, then sends the decode bits and collects the evaluator's
// reported result — the shared body of Run and ResumeRun. Nothing is
// buffered in s.w on entry, and between begin and drain only the sender
// writes to the transport, so the wire order is tables then decode bits;
// the drain also runs when garbling stops on an error, so no Write is in
// flight once this returns. (On a big-endian host the sender leaves the
// arena, and with it garbled.Tables, in wire byte order.)
func (s *GarblerSession) streamRun(from int) ([]bool, error) {
	s.tx.begin(s.rw, s.pg.Tables(), from)
	garbled, err := s.pg.Run(s.emit)
	if derr := s.tx.drain(); err == nil {
		err = derr
	}
	if err != nil {
		return nil, err
	}
	for _, z := range garbled.OutputZeros {
		if err := s.w.WriteByte(byte(z.Colour())); err != nil {
			return nil, wrapPeer("sending decode bits", err)
		}
	}
	if err := s.w.Flush(); err != nil {
		return nil, wrapPeer("sending decode bits", err)
	}
	if _, err := io.ReadFull(s.rw, s.res); err != nil {
		return nil, wrapPeer("reading result", err)
	}
	for i, b := range s.res {
		s.out[i] = b == 1
	}
	return s.out, nil
}

// ResumeRun replays a broken run's outbound stream from table offset
// skip: the garbler re-garbles deterministically from seed (the state
// PendingSeed reported before the original run), drops the first skip
// tables — the evaluator already holds them verified — and emits only
// the remainder, then the decode bits and the result exchange. No
// header, labels or OT travel on a resume stream: input labels are
// re-derived identically from the seed, so the evaluator's held labels
// stay valid.
func (s *GarblerSession) ResumeRun(seed uint64, skip int) ([]bool, error) {
	if skip < 0 {
		return nil, fmt.Errorf("proto: negative resume offset %d", skip)
	}
	if s.resumeSrc == nil {
		s.resumeSrc = label.NewSource(seed)
	} else {
		s.resumeSrc.Reseed(seed)
	}
	s.pg.Begin(s.resumeSrc)
	return s.streamRun(skip)
}

// EvaluatorSession is a reusable evaluator endpoint bound to one
// connection. It holds a persistent plan runner and table arena, making
// steady-state runs allocation-free. Not safe for concurrent use.
type EvaluatorSession struct {
	opts   Options
	c      *circuit.Circuit
	rw     io.ReadWriter
	rd     *bufio.Reader
	pe     *gc.PlanEvaluator
	need   func(n int) ([]gc.Material, error)
	tables []gc.Material
	got    int
	want   header
	hdrBuf [headerSize]byte
	inputs []label.L
	decode []byte
	res    []byte
	out    []bool

	// choices is the packed per-run choice vector, reused across runs so
	// the input phase stays allocation-free.
	choices ot.Bitset
	// pool, when attached, serves runs whose header arrives marked
	// ot.Pooled; other runs use the header's on-demand protocol as
	// always.
	pool *ot.Pool

	// Resume bookkeeping: once a run has its inputs (OT done), the run
	// is resumable — the verified tables in the arena and the
	// held input labels survive a transport swap, so only tables[got:]
	// need re-transfer.
	resumable  bool
	lastTables int
}

// NewEvaluatorSession builds an evaluator session for c over conn,
// compiling a plan here, once, when Options.Plan does not bring one.
func NewEvaluatorSession(conn io.ReadWriter, c *circuit.Circuit, opts Options) (*EvaluatorSession, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	plan, err := opts.planFor(c)
	if err != nil {
		return nil, err
	}
	s := &EvaluatorSession{
		opts:    opts,
		c:       c,
		rd:      bufio.NewReaderSize(bytesReaderNone{}, 1<<16),
		want:    headerFor(c, opts),
		inputs:  make([]label.L, c.NumInputs()),
		decode:  make([]byte, len(c.Outputs)),
		res:     make([]byte, len(c.Outputs)),
		out:     make([]bool, len(c.Outputs)),
		choices: ot.NewBitset(c.EvaluatorInputs),
		pe:      gc.NewPlanEvaluator(plan, opts.Hasher, opts.Workers),
		tables:  make([]gc.Material, len(plan.Tables)),
	}
	s.need = func(n int) ([]gc.Material, error) {
		if err := s.readTables(n); err != nil {
			return nil, err
		}
		return s.tables[:s.got], nil
	}
	s.Reset(conn)
	return s, nil
}

// bytesReaderNone is the placeholder source a session reader is built
// over before its first Reset.
type bytesReaderNone struct{}

func (bytesReaderNone) Read([]byte) (int, error) { return 0, io.EOF }

// Reset rebinds the session to a new connection, keeping the runner and
// scratch. Any attached pool is detached: its correlations were bound
// to the old connection's base-OT state.
func (s *EvaluatorSession) Reset(conn io.ReadWriter) {
	s.rw = instrument(conn, &s.opts)
	s.rd.Reset(s.rw)
	s.pool = nil
}

// SetPool attaches a receiver pool for runs whose header arrives marked
// ot.Pooled. The pool must have been set up over this session's current
// connection; Reset detaches it.
func (s *EvaluatorSession) SetPool(p *ot.Pool) { s.pool = p }

// Close releases the plan runner's worker pool.
func (s *EvaluatorSession) Close() { s.pe.Close() }

// readTables pulls gate-order tables off the wire until upto of them
// have landed, reading straight into the persistent arena's own memory.
// A read that fails part-way still counts the whole tables it delivered,
// so Progress stays exact. Abrupt peer disconnects surface as
// ErrPeerClosed.
func (s *EvaluatorSession) readTables(upto int) error {
	if s.got >= upto {
		return nil
	}
	t := s.tables[s.got:upto]
	n, err := io.ReadFull(s.rd, gc.MaterialBytes(t))
	whole := n / gc.MaterialSize
	gc.MaterialsFromWire(t[:whole])
	s.got += whole
	if err != nil {
		return wrapPeer("reading tables", err)
	}
	return nil
}

// Run plays one full evaluator run and returns the plaintext outputs
// (also reported back to the garbler). The returned slice is reused by
// the next Run.
func (s *EvaluatorSession) Run(evalBits []bool) ([]bool, error) {
	c := s.c
	if len(evalBits) != c.EvaluatorInputs {
		return nil, fmt.Errorf("proto: got %d evaluator bits, want %d", len(evalBits), c.EvaluatorInputs)
	}
	s.resumable = false
	if _, err := io.ReadFull(s.rd, s.hdrBuf[:]); err != nil {
		return nil, wrapPeer("reading header", err)
	}
	h := decodeHeader(s.hdrBuf[:])
	if err := checkHeaderWant(h, s.want); err != nil {
		return nil, err
	}

	nFixed := c.GarblerInputs
	if c.HasConst {
		nFixed += 2
	}
	if nFixed > 0 {
		bp := getSlab(nFixed * label.Size)
		slab := (*bp)[:nFixed*label.Size]
		if _, err := io.ReadFull(s.rd, slab); err != nil {
			putSlab(bp)
			return nil, wrapPeer("reading garbler labels", err)
		}
		label.DecodeSlice(s.inputs[:c.GarblerInputs], slab)
		if c.HasConst {
			s.inputs[c.Const0] = label.FromBytes(slab[c.GarblerInputs*label.Size:])
			s.inputs[c.Const1] = label.FromBytes(slab[(c.GarblerInputs+1)*label.Size:])
		}
		putSlab(bp)
	}
	if c.EvaluatorInputs > 0 {
		s.choices.CopyBools(evalBits)
		evalLabels := s.inputs[c.GarblerInputs : c.GarblerInputs+c.EvaluatorInputs]
		if ot.Protocol(h.OTProto) == ot.Pooled {
			if s.pool == nil {
				return nil, fmt.Errorf("proto: %w: pooled run without a negotiated pool", ErrMalformedFrame)
			}
			if err := s.pool.ReceiveDerand(readWriter{s.rd, s.rw}, s.choices, evalLabels); err != nil {
				return nil, wrapPeer("OT", err)
			}
		} else {
			got, err := ot.ReceiveBitset(readWriter{s.rd, s.rw}, ot.Protocol(h.OTProto), s.choices)
			if err != nil {
				return nil, wrapPeer("OT", err)
			}
			copy(evalLabels, got)
		}
	}

	s.got = 0
	s.lastTables = int(h.NTables)
	s.resumable = true
	outLabels, err := s.pe.EvalStream(s.inputs, s.need)
	if err == nil {
		// Keep the stream position honest even for all-linear
		// circuits; the decode bits follow on the same connection.
		err = s.readTables(int(h.NTables))
	}
	if err != nil {
		return nil, err
	}
	return s.finishRun(outLabels)
}

// finishRun reads the decode bits, decodes the outputs and reports the
// result back — the shared tail of Run and Resume. A completed run is
// no longer resumable.
func (s *EvaluatorSession) finishRun(outLabels []label.L) ([]bool, error) {
	if _, err := io.ReadFull(s.rd, s.decode); err != nil {
		return nil, wrapPeer("reading decode bits", err)
	}
	for i, l := range outLabels {
		v := l.Colour() ^ int(s.decode[i])
		s.out[i] = v == 1
		s.res[i] = byte(v)
	}
	if _, err := s.rw.Write(s.res); err != nil {
		return nil, wrapPeer("sending result", err)
	}
	s.resumable = false
	return s.out, nil
}

// Progress reports how many verified tables the current broken run has
// ingested and whether it can be resumed at all: only runs that
// completed OT (inputs in hand) qualify. The transfer position is
// the ingest count, not the transport's read offset — bytes a failed
// read-ahead buffered but never verified are simply re-sent.
func (s *EvaluatorSession) Progress() (got int, ok bool) {
	if !s.resumable {
		return 0, false
	}
	return s.got, true
}

// Resume continues a broken run over the (re-bound) transport: the
// peer re-emits tables from the ingest offset, so evaluation replays
// over the already-verified prefix in the arena and reads only the
// remainder off the wire, then the decode bits and result exchange
// complete as usual. Call only after Progress reports ok and the peer
// has agreed to resume from got.
func (s *EvaluatorSession) Resume() ([]bool, error) {
	if !s.resumable {
		return nil, fmt.Errorf("proto: no resumable run in progress")
	}
	outLabels, err := s.pe.EvalStream(s.inputs, s.need)
	if err == nil {
		err = s.readTables(s.lastTables)
	}
	if err != nil {
		return nil, err
	}
	return s.finishRun(outLabels)
}
