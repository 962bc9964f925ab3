package proto

import (
	"io"

	"haac/internal/ot"
)

// In-run pool fills. A pooled run whose hit leaves the pool well below
// its target tops it back up inside the same run (ot.Pool.Decide, taken
// by both roles from their lockstep levels). The fill's columns flow
// evaluator → garbler, the direction that is idle while tables stream
// the other way, so each session hands the fill to a goroutine of its
// own and goes on with the run: the evaluator writes the columns once
// it has read the run's masked pairs, the garbler reads them once its
// first flush has left — the run has consumed its correlations by
// then, so the fill has the pool to itself. The evaluator writes its
// result only after the fill has joined, and the garbler reads it only
// after its own has, so the evaluator → garbler bytes stay in stream
// order.
//
// Pieced corrections. A pooled run whose batch is more than one
// ot.DerandPiece sends its choice correction in pieces: the evaluator
// writes the correction's head with the run request, and its goroutine
// builds and writes the pieces while the run reads the garbler's answer
// to each — the garbler reads a piece, then writes its masked pairs. On
// a transport where a write waits for the peer's read (net.Pipe), one
// end must read and write on different goroutines; the evaluator's
// goroutine is that second one. Its in-run fill starts only after the
// run has joined the pieces.

// FillWireBytes returns the bytes an in-run fill of n correlations
// moves on the connection: ot.FillBytes on the legacy wire, plus one
// frame header per frame when framed (the integrity tier). Each chunk's
// columns go out in one Write and a full chunk's fill a whole number of
// frames, so the fill takes ⌈FillBytes/maxFramePayload⌉ frames. A run's
// byte budget sits under the frame codec, so both ends raise it by
// this.
func FillWireBytes(n int, framed bool) int64 {
	b := ot.FillBytes(n)
	if framed {
		b += frameHeaderSize * ((b + maxFramePayload - 1) / maxFramePayload)
	}
	return b
}

// poolWorker is a session's pool goroutine: persistent, started by the
// session's first job and stopped by close. It runs the pool work a run
// hands off its own goroutine — an in-run fill, or the writes of a
// pieced correction — one job at a time. Handing a job over and joining
// it are its only channel operations, so a run that hands off nothing
// does no extra work. One session at a time uses it.
type poolWorker struct {
	jobs chan poolJob
	done chan error // one per job, buffered; closed when the goroutine exits
	busy bool       // a job was handed over and not joined yet
	what string     // the job's failure, for its error
}

// poolJob is a fill of n correlations of pool over rw when pool is set,
// and otherwise the writes of corr's pieces to rw.
type poolJob struct {
	pool *ot.Pool
	rw   io.ReadWriter
	n    int
	corr ot.Correction
}

// fill hands a fill of n correlations of pool over rw to the goroutine.
func (f *poolWorker) fill(pool *ot.Pool, rw io.ReadWriter, n int) {
	f.start(poolJob{pool: pool, rw: rw, n: n}, "OT pool fill")
}

// sendPieces hands the writes of corr's pieces to rw to the goroutine.
func (f *poolWorker) sendPieces(corr ot.Correction, rw io.ReadWriter) {
	f.start(poolJob{rw: rw, corr: corr}, "sending OT correction")
}

func (f *poolWorker) start(j poolJob, what string) {
	if f.jobs == nil {
		f.jobs, f.done = make(chan poolJob), make(chan error, 1)
		go workLoop(f.jobs, f.done)
	}
	f.jobs <- j
	f.busy, f.what = true, what
}

func workLoop(jobs <-chan poolJob, done chan<- error) {
	var piece []byte // one correction piece's bits, reused across jobs
	for j := range jobs {
		if j.pool != nil {
			done <- j.pool.Fill(j.rw, j.n)
			continue
		}
		var err error
		for k := 0; k < j.corr.Pieces() && err == nil; k++ {
			piece = j.corr.AppendPiece(piece[:0], k)
			_, err = j.rw.Write(piece)
		}
		done <- err
	}
	close(done)
}

// join waits for the job in flight, if any, and returns its error.
func (f *poolWorker) join() error {
	if !f.busy {
		return nil
	}
	f.busy = false
	if err := <-f.done; err != nil {
		return wrapPeer(f.what, err)
	}
	return nil
}

// close joins any job in flight, stops the goroutine and returns once
// it has exited.
func (f *poolWorker) close() {
	f.join()
	if f.jobs != nil {
		close(f.jobs)
		<-f.done
		f.jobs = nil
	}
}
