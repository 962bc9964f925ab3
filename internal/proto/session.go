package proto

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"haac/internal/circuit"
	"haac/internal/gc"
	"haac/internal/label"
	"haac/internal/ot"
)

// Protocol sessions: the per-connection endpoints every run goes
// through. A GarblerSession/EvaluatorSession pair owns the run state
// for the lifetime of a connection: the buffered writer/reader, the
// garbler's garble goroutine, both roles' pool goroutines (in-run
// fills, the evaluator's pieced corrections), the packed header, OT
// pair scratch, result buffers and a reusable plan runner all persist,
// so a steady-state run allocates nothing on either side (on-demand OT for
// evaluator inputs is the one inherently allocating step — its cost is
// public-key crypto, not transport; a run served from an attached
// ot.Pool avoids even that). RunGarbler and RunEvaluator build a session
// for a single run and pay that setup — and, without Options.Plan, a
// plan compile — every call; a process answering many requests holds
// sessions instead.

// GarblerSession is a reusable garbler endpoint bound to one connection
// and one precompiled plan. It is not safe for concurrent use; a server
// pools sessions and gives each connection its own. Its runs are
// garbled by the session's garble goroutine, one run ahead into the
// second of two plan runners, and each run writes its own tables as the
// goroutine publishes them (sender.go); once a run has carried an in-run
// fill the session also owns a pool goroutine. So it must be Closed.
type GarblerSession struct {
	opts  Options
	c     *circuit.Circuit
	rw    io.ReadWriter
	w     *bufio.Writer
	tx    *tableStream
	hdr   [headerSize]byte
	pairs []ot.Pair
	dec   []byte
	res   []byte
	out   []bool

	// Pooled OT: when a pool is attached and holds enough correlations,
	// Run reads the evaluator's choice correction, marks the per-run
	// header ot.Pooled and answers each piece of the correction with its
	// masked pairs instead of running opts.OT on demand. The evaluator
	// decides from its own pool level and checks the header agrees, so
	// both sides consume their pools in lockstep — and a hit that leaves
	// the pool well below its target reads an in-run fill's columns on
	// side (fill.go).
	pool       *ot.Pool
	lastPooled bool
	side       poolWorker
}

// NewGarblerSession builds a garbler session over conn. Options.Plan is
// required (serving always amortizes through plans). A zero
// Options.Seed draws a random one; the session's label source then
// advances across runs, so every run garbles with fresh labels. The
// session records its table stream's timing in Options.Stats but counts
// no bytes: its transport's owner does (RunGarbler counts its
// connection into the same Stats).
func NewGarblerSession(conn io.ReadWriter, opts Options) (*GarblerSession, error) {
	return newGarblerSession(conn, opts, false)
}

// newGarblerSession builds a garbler session; a oneRun session never
// garbles a run ahead.
func newGarblerSession(conn io.ReadWriter, opts Options, oneRun bool) (*GarblerSession, error) {
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
		pairs: make([]ot.Pair, c.EvaluatorInputs),
		res:   make([]byte, len(c.Outputs)),
		out:   make([]bool, len(c.Outputs)),
	}
	s.Reset(conn, opts.OT)
	s.tx = newTableStream(opts.Plan, opts.Hasher, opts.Seed, opts.Stats, oneRun)
	return s, nil
}

// PendingSeed returns the label-source state the next Run will begin
// from — the one the run garbled ahead began from, if there is one. A
// server records it before starting a run so a broken transfer can
// later be replayed from the same deterministic stream with ResumeRun —
// by any pooled runner sharing the hasher and plan, not just this one.
func (s *GarblerSession) PendingSeed() uint64 { return s.tx.pendingSeed() }

// Reset rebinds the session to a new connection and OT protocol,
// keeping the plan runners, label source and scratch — and the run
// garbled ahead, whose labels no peer has seen. A server pools sessions
// per circuit and Resets one for each accepted connection.
func (s *GarblerSession) Reset(conn io.ReadWriter, otp ot.Protocol) {
	s.side.join() // left in flight only by a run that panicked out
	s.opts.OT = otp
	s.rw = conn
	s.w.Reset(s.rw)
	h := headerFor(s.c, s.opts)
	h.encode(s.hdr[:])
	// A pool is bound to the old connection's base-OT state; the new
	// connection starts without one until its handshake seeds one.
	s.pool = nil
	s.lastPooled = false
}

// SetPool attaches a sender pool whose correlations future Runs may
// consume. The pool must have been set up over this session's current
// connection; Reset detaches it.
func (s *GarblerSession) SetPool(p *ot.Pool) { s.pool = p }

// NextFill returns the correlations the next Run's in-run fill adds to
// the attached pool (ot.Pool.Decide): 0 on a miss, without a pool
// target, or while the pool is near it. The serving layer makes room
// for the fill's FillWireBytes in that run's byte budget.
func (s *GarblerSession) NextFill() int {
	_, n := s.pool.Decide(s.c.EvaluatorInputs)
	return n
}

// LastRunPooled reports whether the most recent Run served the
// evaluator's labels from the pool (a hit) rather than falling back to
// the on-demand protocol — the serving layer's hit/miss accounting
// hook.
func (s *GarblerSession) LastRunPooled() bool { return s.lastPooled }

// Lead queues p to leave ahead of the next Run's header, in the same
// flush: the serving layer's run ack rides there instead of costing a
// write of its own. A write error surfaces from that Run.
func (s *GarblerSession) Lead(p []byte) { s.w.Write(p) }

// Close stops the garble and pool goroutines; a run garbling ahead
// stops at its next emit. No Run may be in progress.
func (s *GarblerSession) Close() {
	s.tx.close()
	s.side.close()
}

// Run plays one full garbler run: header, active input labels, OT,
// segment-streamed tables, decode bits, and the evaluator's reported
// result. The run is the one garbled ahead, or is garbled from now on
// the garble goroutine; either way Run takes its R and input
// zero-labels once it has begun, and writes its tables behind the
// goroutine's watermark. A pool hit first reads the head of
// the evaluator's choice correction; once it has written the header and
// labels, it reads the correction a piece at a time and answers each
// piece with its masked pairs, the first answer in the header's flush.
// An on-demand OT runs after the header's flush instead. A hit that
// carries an in-run fill reads the fill's columns on the session's pool
// goroutine from the last answer on, and joins it before reading the
// result. The returned slice is reused by the next Run.
func (s *GarblerSession) Run(garblerBits []bool) ([]bool, error) {
	if len(garblerBits) != s.c.GarblerInputs {
		return nil, fmt.Errorf("proto: got %d garbler bits, want %d", len(garblerBits), s.c.GarblerInputs)
	}
	rn := s.tx.next()
	if err := s.sendInputs(rn, garblerBits); err != nil {
		s.tx.stop(rn)
		return nil, err
	}
	return s.streamRun(rn, 0)
}

// sendInputs is a run's input phase: header, the garbler's active
// labels and the evaluator's labels by OT, pooled or on demand.
func (s *GarblerSession) sendInputs(rn *runner, garblerBits []bool) error {
	c := s.c
	// Hit/miss decision happens before the header leaves: a pool with
	// enough correlations marks the run pooled, a short one falls back
	// to the on-demand protocol for this run only (a miss, not an
	// error). The evaluator takes the same decision from its own level
	// and sent its correction's head ahead of the header on a hit; the
	// header's OT byte carries this side's verdict for it to check.
	m := c.EvaluatorInputs
	otp := s.opts.OT
	var fill int
	s.lastPooled, fill = s.pool.Decide(m)
	if s.lastPooled {
		otp = ot.Pooled
		if err := s.pool.ReadCorrectionHead(s.rw, m); err != nil {
			return wrapPeer("OT", err)
		}
	}
	s.hdr[5] = byte(otp)
	if _, err := s.w.Write(s.hdr[:]); err != nil {
		return wrapPeer("writing header", err)
	}
	s.tx.begun(rn)
	zeros, r := rn.pg.InputZeros(), rn.pg.R()
	if err := sendActiveInputs(s.w, c, zeros, r, garblerBits); err != nil {
		return err
	}
	off := c.GarblerInputs
	for i := range s.pairs {
		s.pairs[i] = ot.Pair{M0: zeros[off+i], M1: zeros[off+i].Xor(r)}
	}
	if s.lastPooled {
		// Labels and pairs do not depend on the correction, so each piece
		// is answered as it arrives while the evaluator reads the answers
		// before it.
		for k := range ot.DerandPieces(m) {
			if err := s.pool.ReadCorrectionPiece(s.rw, k); err != nil {
				return wrapPeer("OT", err)
			}
			if err := s.pool.WriteMaskedPiece(s.w, s.pairs, k); err != nil {
				return wrapPeer("OT", err)
			}
			if err := s.w.Flush(); err != nil {
				return wrapPeer("sending masked pairs", err)
			}
		}
	}
	if err := s.w.Flush(); err != nil {
		return wrapPeer("sending garbler labels", err)
	}
	if fill > 0 {
		// The masked pairs have left, so the run has consumed its
		// correlations, and the evaluator writes the fill's columns once
		// it has read them.
		s.side.fill(s.pool, s.rw, fill)
	}
	if m > 0 && !s.lastPooled {
		if err := ot.Send(s.rw, otp, s.pairs); err != nil {
			return wrapPeer("OT", err)
		}
	}
	return nil
}

// streamRun streams rn's tables from offset from, then sends the decode
// bits and collects the evaluator's reported result — the shared body
// of Run and ResumeRun. Nothing is buffered in s.w on entry, so the
// wire order is tables then decode bits; the stream, which also waits
// for the run's garbling to end, runs to its end when a write fails
// too, and so does the join of an in-run fill, so no Read or Write is
// in flight once this returns. (On a big-endian host the stream leaves
// the arena, and with it garbled.Tables, in wire byte order.)
func (s *GarblerSession) streamRun(rn *runner, from int) ([]bool, error) {
	garbled, err := s.tx.stream(s.rw, rn, from)
	if err == nil {
		err = s.sendDecode(garbled.OutputZeros)
	}
	if ferr := s.side.join(); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(s.rw, s.res); err != nil {
		return nil, wrapPeer("reading result", err)
	}
	for i, b := range s.res {
		if b > 1 {
			return nil, fmt.Errorf("proto: %w: result byte %d for output %d", ErrMalformedFrame, b, i)
		}
		s.out[i] = b == 1
	}
	return s.out, nil
}

// sendDecode writes and flushes the run's decode bits, one byte per
// output, staged in the session's reused slice and written in one call.
func (s *GarblerSession) sendDecode(outputZeros []label.L) error {
	if cap(s.dec) < len(outputZeros) {
		s.dec = make([]byte, len(outputZeros))
	}
	s.dec = s.dec[:len(outputZeros)]
	for i, z := range outputZeros {
		s.dec[i] = byte(z.Colour())
	}
	if _, err := s.w.Write(s.dec); err != nil {
		return wrapPeer("sending decode bits", err)
	}
	if err := s.w.Flush(); err != nil {
		return wrapPeer("sending decode bits", err)
	}
	return nil
}

// ResumeRun replays a broken run's outbound stream from table offset
// skip: the garble goroutine re-garbles it deterministically from seed
// (the state PendingSeed reported before the original run) on the
// runner the run ahead does not hold, leaving that run as it is; the
// first skip tables — the evaluator already holds them verified — are
// not sent, only the remainder, then the decode bits and the result
// exchange. No header, labels or OT travel on a resume stream: input
// labels are re-derived identically from the seed, so the evaluator's
// held labels stay valid.
func (s *GarblerSession) ResumeRun(seed uint64, skip int) ([]bool, error) {
	if skip < 0 {
		return nil, fmt.Errorf("proto: negative resume offset %d", skip)
	}
	return s.streamRun(s.tx.resume(seed), skip)
}

// EvaluatorSession is a reusable evaluator endpoint bound to one
// connection. It holds a persistent plan runner and table arena, making
// steady-state runs allocation-free. Not safe for concurrent use; once a
// run has carried an in-run fill or a pieced correction it owns a
// goroutine, so it must be Closed.
type EvaluatorSession struct {
	opts   Options
	stats  *Stats // Options.Stats, or the session's own: where table reads are timed
	c      *circuit.Circuit
	rw     io.ReadWriter
	rd     *bufio.Reader
	otrw   readWriter // rd and rw paired for OT, held so a run boxes nothing
	pe     *gc.PlanEvaluator
	need   func(n int) ([]gc.Material, error)
	tables []gc.Material
	got    int // whole tables of the run read
	part   int // bytes read of the table after them
	want   header
	hdrBuf [headerSize]byte
	inputs []label.L
	decode []byte
	res    []byte
	out    []bool

	// choices is the packed per-run choice vector, reused across runs so
	// the input phase stays allocation-free.
	choices ot.Bitset
	// pool, when attached and holding enough correlations, serves the
	// run: the choice correction goes out before the header, whose OT
	// byte must then say ot.Pooled. Other runs use the header's
	// on-demand protocol as always.
	pool *ot.Pool
	// corr is Run's scratch for a correction it sends itself; sent
	// records that AppendCorrection built this run's correction (the hit
	// decision), so Run reads the masked pairs and sends nothing more;
	// pieced records a correction of more than one piece, pieces, that
	// SendPieces has yet to pack the choices of (bits) and hand to side;
	// and due is the in-run fill that hit carries, written on side once
	// the masked pairs are in (fill.go).
	corr   []byte
	sent   bool
	pieces ot.Correction
	bits   []bool
	pieced bool
	due    int
	side   poolWorker

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
		stats:   opts.Stats,
		c:       c,
		rd:      bufio.NewReaderSize(bytesReaderNone{}, 1<<16),
		want:    headerFor(c, opts),
		inputs:  make([]label.L, c.NumInputs()),
		decode:  make([]byte, len(c.Outputs)),
		res:     make([]byte, len(c.Outputs)),
		out:     make([]bool, len(c.Outputs)),
		choices: ot.NewBitset(c.EvaluatorInputs),
		pe:      gc.NewPlanEvaluator(plan, opts.Hasher),
		tables:  make([]gc.Material, len(plan.Tables)),
	}
	if s.stats == nil {
		s.stats = new(Stats)
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
// to the old connection's base-OT state. So is the input phase of a hit
// whose run never started (AppendCorrection, then a failed op): its
// correction, pieces and in-run fill belonged to the old pool.
func (s *EvaluatorSession) Reset(conn io.ReadWriter) {
	// Left in flight only by a run that panicked out, or by pieces whose
	// run failed before Run on a connection the caller has closed.
	s.side.join()
	s.rw = instrument(conn, &s.opts)
	s.rd.Reset(s.rw)
	s.otrw = readWriter{s.rd, s.rw}
	s.pool = nil
	s.sent, s.pieced, s.pieces, s.bits, s.due = false, false, ot.Correction{}, nil, 0
}

// SetPool attaches a receiver pool that serves every run it holds
// enough correlations for. The pool must have been set up over this
// session's current connection; Reset detaches it.
func (s *EvaluatorSession) SetPool(p *ot.Pool) { s.pool = p }

// Conn returns the session's connection as its runs use it: reads go
// through the session's buffered reader, writes straight through. A
// caller that exchanges bytes on the connection between runs (the
// serving client's op frames and acks) uses it, so no byte the reader
// has buffered ahead is lost.
func (s *EvaluatorSession) Conn() io.ReadWriter { return &s.otrw }

// NextFill returns the correlations the next Run's in-run fill adds to
// the attached pool (ot.Pool.Decide, the garbler's rule): 0 on a miss,
// without a pool target, or while the pool is near it.
func (s *EvaluatorSession) NextFill() int {
	_, n := s.pool.Decide(s.c.EvaluatorInputs)
	return n
}

// Close stops the pool goroutine.
func (s *EvaluatorSession) Close() {
	s.side.close()
}

// TableReadWait returns the time the session's runs have spent reading
// tables — blocked, mostly, on a garbler that had not sent them yet —
// as its Stats holds it: Options.Stats, shared with whoever else records
// there, or the session's own.
func (s *EvaluatorSession) TableReadWait() time.Duration {
	return time.Duration(s.stats.TableReadWaitNanos.Load())
}

// readTables pulls gate-order tables off the wire until upto of them
// have landed, reading straight into the persistent arena's own memory.
// Each read takes whatever has arrived up to the end of the run's
// tables, not just the tables upto asks for: a run garbled ahead arrives
// as fast as the socket carries it, and the evaluator then makes a few
// long reads instead of one per segment. The bytes of a table only
// partly read wait in the arena for the next read. A read that fails
// part-way still counts the whole tables it delivered, so Progress stays
// exact. Abrupt peer disconnects surface as ErrPeerClosed.
func (s *EvaluatorSession) readTables(upto int) error {
	if s.got >= upto {
		return nil
	}
	rest := gc.MaterialBytes(s.tables[s.got:])[s.part:]
	start := time.Now()
	n, err := io.ReadAtLeast(s.rd, rest, (upto-s.got)*gc.MaterialSize-s.part)
	s.stats.TableReadWaitNanos.Add(int64(time.Since(start)))
	n += s.part
	whole := n / gc.MaterialSize
	gc.MaterialsFromWire(s.tables[s.got : s.got+whole])
	s.got += whole
	s.part = n % gc.MaterialSize
	if err != nil {
		return wrapPeer("reading tables", err)
	}
	return nil
}

// AppendCorrection prepares the next run's input phase ahead of it:
// when the attached pool can serve the run, it appends the head of the
// pool's choice correction for evalBits to dst — and, when the batch is
// one ot.DerandPiece or less, its bits — reports the hit, and leaves the
// frame for the caller to send: the serving client writes it in its run
// op's frame. The caller then calls SendPieces, and the next Run must be
// given the same evalBits and sends nothing of its own. A miss appends
// nothing.
func (s *EvaluatorSession) AppendCorrection(dst []byte, evalBits []bool) ([]byte, bool, error) {
	if len(evalBits) != s.c.EvaluatorInputs {
		return dst, false, fmt.Errorf("proto: got %d evaluator bits, want %d", len(evalBits), s.c.EvaluatorInputs)
	}
	hit, fill := s.pool.Decide(s.c.EvaluatorInputs)
	if !hit {
		return dst, false, nil
	}
	corr, err := s.pool.Correction(s.choices)
	if err != nil {
		return dst, false, err
	}
	dst = corr.AppendHead(dst)
	if corr.Pieces() > 1 {
		// The head leaves before the choices are even packed, so the
		// garbler starts its run while SendPieces packs them.
		s.pieces, s.bits, s.pieced = corr, evalBits, true
	} else {
		s.choices.CopyBools(evalBits)
		dst = corr.AppendPiece(dst, 0)
	}
	s.sent, s.due = true, fill
	return dst, true, nil
}

// SendPieces packs the choices of a correction AppendCorrection left out
// of its frame and starts the writes of its pieces on the session's pool
// goroutine, which builds each piece as it goes: the caller reads the
// garbler's answers to the first pieces while the later ones leave.
// Call it once the frame has been written; Run joins the writes. It
// does nothing when the frame held the whole correction.
func (s *EvaluatorSession) SendPieces() {
	if s.pieced {
		s.choices.CopyBools(s.bits)
		s.pieced, s.bits = false, nil
		s.side.sendPieces(s.pieces, s.rw)
	}
}

// Run plays one full evaluator run and returns the plaintext outputs
// (also reported back to the garbler). On a pool hit it first writes
// the choice correction's head and starts its pieces (SendPieces),
// unless AppendCorrection gave the frame to the caller to send; it
// reads the masked pairs a piece at a time, as the garbler answers each,
// and joins the pieces' writes. A hit that carries an in-run fill then
// writes the fill's columns on the session's pool goroutine, while the
// tables stream back, and joins it before writing the result. The
// returned slice is reused by the next Run.
func (s *EvaluatorSession) Run(evalBits []bool) ([]bool, error) {
	c := s.c
	if len(evalBits) != c.EvaluatorInputs {
		return nil, fmt.Errorf("proto: got %d evaluator bits, want %d", len(evalBits), c.EvaluatorInputs)
	}
	s.resumable = false
	if !s.sent {
		var err error
		if s.corr, _, err = s.AppendCorrection(s.corr[:0], evalBits); err != nil {
			return nil, wrapPeer("OT", err)
		}
		if s.sent {
			if _, err := s.rw.Write(s.corr); err != nil {
				return nil, wrapPeer("sending OT correction", err)
			}
		}
	}
	s.SendPieces()
	pooled, due := s.sent, s.due
	s.sent, s.due = false, 0
	h, err := s.readInputs(evalBits, pooled)
	if err != nil {
		s.side.join() // the correction's pieces may still be leaving
		return nil, err
	}
	if due > 0 {
		s.side.fill(s.pool, s.rw, due)
	}

	s.got, s.part = 0, 0
	s.lastTables = int(h.NTables)
	s.resumable = true
	outLabels, err := s.pe.EvalStream(s.inputs, s.need)
	if err == nil {
		// Keep the stream position honest even for all-linear
		// circuits; the decode bits follow on the same connection.
		err = s.readTables(int(h.NTables))
	}
	return s.finishRun(outLabels, err)
}

// readInputs reads the run's header and checks it against the circuit
// and this side's pool decision, then reads the input labels: the
// garbler's, and the evaluator's own from the masked pairs of a pool hit
// — whose correction's pieces it joins — or by the header's on-demand
// OT.
func (s *EvaluatorSession) readInputs(evalBits []bool, pooled bool) (header, error) {
	c := s.c
	if _, err := io.ReadFull(s.rd, s.hdrBuf[:]); err != nil {
		return header{}, wrapPeer("reading header", err)
	}
	h := decodeHeader(s.hdrBuf[:])
	if err := checkHeaderWant(h, s.want); err != nil {
		return h, err
	}
	if (ot.Protocol(h.OTProto) == ot.Pooled) != pooled {
		return h, fmt.Errorf("proto: %w: header OT %d contradicts this side's pool decision (pooled=%v)", ErrMalformedFrame, h.OTProto, pooled)
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
			return h, wrapPeer("reading garbler labels", err)
		}
		label.DecodeSlice(s.inputs[:c.GarblerInputs], slab)
		if c.HasConst {
			s.inputs[c.Const0] = label.FromBytes(slab[c.GarblerInputs*label.Size:])
			s.inputs[c.Const1] = label.FromBytes(slab[(c.GarblerInputs+1)*label.Size:])
		}
		putSlab(bp)
	}
	if c.EvaluatorInputs == 0 {
		return h, nil
	}
	evalLabels := s.inputs[c.GarblerInputs : c.GarblerInputs+c.EvaluatorInputs]
	if pooled {
		if err := s.pool.ReadMasked(s.rd, s.choices, evalLabels); err != nil {
			return h, wrapPeer("OT", err)
		}
		return h, s.side.join()
	}
	s.choices.CopyBools(evalBits)
	got, err := ot.ReceiveBitset(&s.otrw, ot.Protocol(h.OTProto), s.choices)
	if err != nil {
		return h, wrapPeer("OT", err)
	}
	copy(evalLabels, got)
	return h, nil
}

// finishRun reads the decode bits, decodes the outputs and reports the
// result back — the shared tail of Run and Resume, entered with the
// error the table stream ended on. An in-run fill is joined first, on
// every path: its columns go ahead of the result on the one
// evaluator→garbler direction, and no Write may be in flight once Run
// returns. A completed run is no longer resumable.
func (s *EvaluatorSession) finishRun(outLabels []label.L, err error) ([]bool, error) {
	if err == nil {
		if _, rerr := io.ReadFull(s.rd, s.decode); rerr != nil {
			err = wrapPeer("reading decode bits", rerr)
		}
	}
	if ferr := s.side.join(); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
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
	s.part = 0 // the peer resends from the first table not whole
	outLabels, err := s.pe.EvalStream(s.inputs, s.need)
	if err == nil {
		err = s.readTables(s.lastTables)
	}
	return s.finishRun(outLabels, err)
}
