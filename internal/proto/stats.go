package proto

import (
	"io"
	"sync/atomic"
	"time"
)

// Stats collects transfer metrics for a protocol run when attached via
// Options.Stats: total bytes in each direction and wall-clock duration.
// GC bandwidth demand is the core systems challenge the paper targets
// (§1: "GCs are data intensive"), so the examples report it.
type Stats struct {
	BytesSent     atomic.Int64
	BytesReceived atomic.Int64
	// TableSendNanos is the time a garbler session's sender goroutine
	// spent inside the transport's Write pushing tables;
	// TableDrainWaitNanos is the time its runs then waited, garbling
	// done, for the last of them to leave. Send time the drain wait does
	// not cover was overlapped with garbling.
	TableSendNanos      atomic.Int64
	TableDrainWaitNanos atomic.Int64
	// start holds the earliest begin() as UnixNano; one Stats may be
	// shared by both roles of an in-process run, so begin/end race-free
	// via atomics: the first begin and the last end win.
	start    atomic.Int64
	duration atomic.Int64 // nanoseconds
}

// Duration returns the elapsed wall time of the run.
func (s *Stats) Duration() time.Duration { return time.Duration(s.duration.Load()) }

// Throughput returns the total transfer rate in bytes/second.
func (s *Stats) Throughput() float64 {
	d := s.Duration().Seconds()
	if d == 0 {
		return 0
	}
	return float64(s.BytesSent.Load()+s.BytesReceived.Load()) / d
}

func (s *Stats) begin() {
	if s != nil {
		s.start.CompareAndSwap(0, time.Now().UnixNano())
	}
}

func (s *Stats) end() {
	if s != nil {
		s.duration.Store(time.Now().UnixNano() - s.start.Load())
	}
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
