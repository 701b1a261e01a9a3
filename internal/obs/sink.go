package obs

// sink.go is the spill side of the production telemetry path: a Bus can
// redirect its event stream to a BinWriter (the shared, header-once,
// error-latching writer of one .pbt stream) instead of materializing it.
// Many buses — the city's per-cell shards — share one BinWriter; each
// flush is prefixed with the bus's shard marker so the decoder can
// reassemble every shard's chain no matter how flushes interleave.

import (
	"io"
	"sort"
)

// BinWriter owns one binary telemetry stream: it puts the 4-byte header
// before the first payload, coalesces the flushes of many buses into one
// Write per Sync, counts bytes, and latches the first write error
// (telemetry must never abort a simulation mid-run — callers check Err
// once, after the run). Nothing is synchronized; the city flushes all
// shard buffers and syncs from its single-threaded barrier.
type BinWriter struct {
	w       io.Writer
	err     error
	n       int64
	dropped int64
	// buf holds the flushed bytes not yet handed to w. A city barrier
	// flushes every shard — thousands of sub-kilobyte units per simulated
	// second — and an unbuffered *os.File would take a syscall for each.
	buf []byte
}

// binSyncAt is the pending size past which write syncs on its own, so the
// coalescing buffer stays bounded between explicit Syncs.
const binSyncAt = 64 << 10

// NewBinWriter wraps w as a binary telemetry sink.
func NewBinWriter(w io.Writer) *BinWriter { return &BinWriter{w: w} }

func (bw *BinWriter) write(p []byte) {
	if len(p) == 0 {
		return
	}
	if bw.err != nil {
		bw.dropped += int64(len(p))
		return
	}
	if bw.n == 0 {
		bw.buf = AppendBinaryHeader(bw.buf)
		bw.n = 4
	}
	bw.buf = append(bw.buf, p...)
	bw.n += int64(len(p))
	if len(bw.buf) >= binSyncAt {
		bw.Sync()
	}
}

// Sync hands everything flushed so far to the underlying writer in one
// Write. A tailing reader sees the stream advance at each Sync: the city
// syncs once per epoch barrier, after its shard sweep. Safe on nil.
func (bw *BinWriter) Sync() {
	if bw == nil || len(bw.buf) == 0 {
		return
	}
	n, err := bw.w.Write(bw.buf)
	if err != nil {
		lost := int64(len(bw.buf) - n)
		bw.err = err
		bw.n -= lost
		bw.dropped += lost
	}
	bw.buf = bw.buf[:0]
}

// Bytes reports how many bytes the stream holds (header included): handed
// to the writer, or flushed and waiting for the next Sync.
func (bw *BinWriter) Bytes() int64 { return bw.n }

// Dropped reports how many flushed bytes never reached the writer: the
// unwritten part of the Write that failed and everything flushed since.
func (bw *BinWriter) Dropped() int64 { return bw.dropped }

// Err reports the latched first write error, if any.
func (bw *BinWriter) Err() error { return bw.err }

// SpillTo redirects the bus's event stream to w instead of retaining
// it: every event is appended, binary-encoded, to a pending buffer
// that Flush hands to w under the bus's shard marker. shard tags this
// bus's records inside the shared stream (each spilling bus needs a
// distinct shard id). autoFlush > 0 flushes whenever the pending buffer
// reaches that many bytes; 0 leaves flushing entirely to explicit Flush
// calls — the city flushes every shard at its 10 ms clock barriers, in
// shard-id order, so the file is byte-identical at any worker count.
// Flushed bytes reach w's writer at the next Sync.
func (b *Bus) SpillTo(w *BinWriter, shard int32, autoFlush int) {
	b.sink = w
	b.shard = shard
	b.flushAt = autoFlush
	b.enc.Reset()
	if b.binbuf == nil {
		b.binbuf = make([]byte, 0, 4096)
	}
}

// Flush moves the pending binary buffer (if any) into the sink's stream.
// Safe on a nil or non-spilling bus.
func (b *Bus) Flush() {
	if b == nil || b.sink == nil || len(b.binbuf) == 0 {
		return
	}
	b.sink.write(b.binbuf)
	b.binbuf = b.binbuf[:0]
}

// Sync flushes the bus and syncs its sink, so everything emitted so far
// is in the underlying writer. Safe on a nil or non-spilling bus.
func (b *Bus) Sync() {
	if b == nil {
		return
	}
	b.Flush()
	b.sink.Sync()
}

// FinishSpill spills the bus's gauges (sorted by name, once), then
// flushes and syncs everything pending. Call after the run; safe on a nil
// or non-spilling bus.
func (b *Bus) FinishSpill() {
	if b == nil || b.sink == nil {
		return
	}
	if len(b.gauges) > 0 && !b.spilledGauges {
		b.spilledGauges = true
		names := make([]string, 0, len(b.gauges))
		for name := range b.gauges {
			names = append(names, name)
		}
		sort.Strings(names)
		b.binPending()
		for _, name := range names {
			b.binbuf = AppendGauge(b.binbuf, name, b.gauges[name])
		}
	}
	b.Sync()
}

// binPending opens a flush unit: the first record after every flush is
// the bus's shard marker, so the decoder always knows whose chain the
// following records extend. Bus.record makes the same test inline.
func (b *Bus) binPending() {
	if len(b.binbuf) == 0 {
		b.binbuf = AppendShardMarker(b.binbuf, b.shard)
	}
}
