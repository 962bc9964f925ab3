package proto

import (
	"io"
	"sync/atomic"
)

// Stats collects transfer metrics for a protocol run when attached via
// Options.Stats: total bytes in each direction, the garbler's table
// send times and the evaluator's table read time. GC bandwidth demand
// is the core systems challenge the paper targets (§1: "GCs are data
// intensive"), so the examples report it.
type Stats struct {
	BytesSent     atomic.Int64
	BytesReceived atomic.Int64
	// TableSendNanos is the time a garbler session's runs spent inside
	// the transport's Write pushing tables. TableDrainWaitNanos is the
	// wall time of their table streams, from the first table a run may
	// write (its inputs have gone out) until garbling has ended and its
	// last table has left: it holds every table write, so it is never
	// less than TableSendNanos, and the rest of it is time the run
	// waited for its garble goroutine to publish tables.
	TableSendNanos      atomic.Int64
	TableDrainWaitNanos atomic.Int64
	// TableReadWaitNanos is the time an evaluator session's runs spent
	// reading tables: the evaluator blocked on the garbler's stream.
	TableReadWaitNanos atomic.Int64
}

// countingConn wraps a ReadWriter, attributing bytes to a Stats.
type countingConn struct {
	inner io.ReadWriter
	stats *Stats
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.inner.Read(p)
	c.stats.BytesReceived.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.inner.Write(p)
	c.stats.BytesSent.Add(int64(n))
	return n, err
}

// instrument wraps conn when opts carries a Stats collector.
func instrument(conn io.ReadWriter, opts *Options) io.ReadWriter {
	return Instrument(conn, opts.Stats)
}

// Instrument wraps a transport so every byte through it is attributed to
// stats (nil stats returns conn unwrapped) — the same counting wrapper
// the protocol roles use internally, exported for benchmarks that drive
// sub-protocols (like the OT extension) directly.
func Instrument(conn io.ReadWriter, stats *Stats) io.ReadWriter {
	if stats == nil {
		return conn
	}
	return countingConn{inner: conn, stats: stats}
}
