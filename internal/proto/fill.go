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

// poolFiller is a session's fill goroutine: persistent, started by the
// session's first in-run fill and stopped by close. Handing a fill over
// and joining it are its only channel operations, so a run that carries
// no fill does no extra work. One session at a time uses it.
type poolFiller struct {
	jobs chan fillJob
	done chan error // one per fill, buffered; closed when the goroutine exits
	busy bool       // a fill was handed over and not joined yet
}

type fillJob struct {
	pool *ot.Pool
	rw   io.ReadWriter
	n    int
}

// start hands a fill of n correlations of pool over rw to the goroutine.
func (f *poolFiller) start(pool *ot.Pool, rw io.ReadWriter, n int) {
	if f.jobs == nil {
		f.jobs, f.done = make(chan fillJob), make(chan error, 1)
		go fillLoop(f.jobs, f.done)
	}
	f.jobs <- fillJob{pool, rw, n}
	f.busy = true
}

func fillLoop(jobs <-chan fillJob, done chan<- error) {
	for j := range jobs {
		done <- j.pool.Fill(j.rw, j.n)
	}
	close(done)
}

// join waits for the fill in flight, if any, and returns its error.
func (f *poolFiller) join() error {
	if !f.busy {
		return nil
	}
	f.busy = false
	if err := <-f.done; err != nil {
		return wrapPeer("OT pool fill", err)
	}
	return nil
}

// close joins any fill in flight, stops the goroutine and returns once
// it has exited.
func (f *poolFiller) close() {
	f.join()
	if f.jobs != nil {
		close(f.jobs)
		<-f.done
		f.jobs = nil
	}
}
