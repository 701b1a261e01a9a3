// The receiver half of the live backend: SSRC validation, the jitter
// buffer, per-frame metadata reconstruction, and the periodic reverse
// report. Released packets come out in transport-sequence order carrying a
// shared *video.EncodedFrame per run of one frame's packets — the same
// delivery contract the simulated forward path gives session.Viewer.OnPacket.

package realnet

import (
	"time"

	"poi360/internal/obs"
	"poi360/internal/projection"
	"poi360/internal/rtp"
	"poi360/internal/simclock"
	"poi360/internal/video"
)

// DefaultReportEvery is the reverse-report cadence. It matches the modem
// diagnostic period so every synthesized diag interval on the sender spans
// fresh accounting.
const DefaultReportEvery = 40 * time.Millisecond

// maxDropout is how far ahead of the highest accepted sequence a datagram
// may jump (RFC 3550 A.1's MAX_DROPOUT). A datagram further ahead is
// discarded unless the next datagram is its successor, which resyncs the
// stream to it: one forged datagram cannot move the jitter buffer's floor
// past every genuine packet behind it.
const maxDropout = 3000

// ReceiverConfig configures a live Receiver.
type ReceiverConfig struct {
	// Hold is the jitter-buffer hold (0 = DefaultHold).
	Hold time.Duration
	// Deliver receives each released packet in sequence order, with its
	// receipt instant (receiver clock). Consecutive packets of one frame
	// share one *video.EncodedFrame, so per-frame state (a reconstructed
	// Spatial matrix, a capture instant moved onto the local clock) can
	// hang off the frame; a packet of another frame gets a fresh record
	// rebuilt from its header. rtp.Pacer sends a frame's packets back to
	// back, so each frame gets one record. The *rtp.Packet is receiver-
	// owned storage reused across calls: it is only valid within the call,
	// so copy it (*pkt) to keep it. Required.
	Deliver func(pkt *rtp.Packet, arrived time.Duration)
	// SendReport writes one report datagram to the sender (Link.Write).
	// Nil disables reporting (deterministic tests drive reports manually).
	SendReport func([]byte) error
	// AppFeedback, if non-nil, supplies the application feedback for each
	// report: viewer ROI, window-averaged mismatch M, GCC target rate.
	AppFeedback func(now time.Duration) (roi projection.Tile, m time.Duration, rate float64)
	// Probe, if non-nil, receives a net.jitter event for every late
	// arrival, duplicate, and hold-expiry skip in the jitter buffer.
	Probe *obs.Probe
}

// Receiver is the live receive pipeline. It locks to the SSRC of the first
// datagram it parses, and keeps one frame record: the frame of the last
// released packet. All methods must run on the scheduler goroutine
// (Link.Pump delivers datagrams there).
type Receiver struct {
	clk simclock.Scheduler
	cfg ReceiverConfig
	jb  *JitterBuffer

	ssrc       uint32
	ssrcLocked bool
	badSSRC    int64
	parseErrs  int64
	farAhead   int64 // datagrams discarded as more than maxDropout ahead
	badSeq     int64 // the successor of the last such datagram

	// Cumulative accounting for reports: datagrams the jitter buffer
	// accepted (a late arrival or duplicate is not received twice), and the
	// highest sequence among them.
	recvBytes  uint64
	recvPkts   uint64
	highestSeq int64

	hdr   rtp.WireHeader      // the datagram being handled, parsed in place
	frame *video.EncodedFrame // the last released packet's frame record
	pkt   rtp.Packet          // the delivered packet view, rebuilt per release

	reportSeq  uint32
	reportErrs int64
	scratch    []byte
}

// NewReceiver builds the receive pipeline and, when cfg.SendReport is set,
// starts the DefaultReportEvery report ticker.
func NewReceiver(clk simclock.Scheduler, cfg ReceiverConfig) *Receiver {
	if cfg.Deliver == nil {
		panic("realnet: ReceiverConfig.Deliver is required")
	}
	r := &Receiver{
		clk:        clk,
		cfg:        cfg,
		highestSeq: -1,
		badSeq:     -1,
		scratch:    make([]byte, 0, ReportLen),
	}
	r.jb = NewJitterBuffer(clk, cfg.Hold, r.release)
	r.jb.SetProbe(cfg.Probe)
	if cfg.SendReport != nil {
		clk.Ticker(DefaultReportEvery, r.reportTick)
	}
	return r
}

// HandleDatagram ingests one media datagram (scheduler goroutine; wire it
// as the receiver Pump's handler).
func (r *Receiver) HandleDatagram(b []byte) {
	h := &r.hdr
	if err := h.Unmarshal(b); err != nil {
		r.parseErrs++
		return
	}
	if !r.ssrcLocked {
		r.ssrc = h.SSRC
		r.ssrcLocked = true
	} else if h.SSRC != r.ssrc {
		r.badSSRC++
		return
	}
	if r.highestSeq >= 0 && h.Seq-r.highestSeq > maxDropout && h.Seq != r.badSeq {
		r.farAhead++
		r.badSeq = h.Seq + 1
		return
	}
	// Acked on acceptance, not at release: a held packet has arrived.
	if r.jb.Push(h) {
		r.recvBytes += uint64(len(b))
		r.recvPkts++
		if h.Seq > r.highestSeq {
			r.highestSeq = h.Seq
		}
	}
}

// release is the jitter buffer's delivery point: rebuild the packet view
// around the current frame record, or a fresh one when h starts another
// frame, and hand it to the consumer.
func (r *Receiver) release(h *rtp.WireHeader, arrived time.Duration) {
	if r.frame == nil || r.frame.Seq != h.FrameSeq {
		r.frame = new(video.EncodedFrame)
		r.pkt = h.Materialize(r.frame)
	} else {
		r.pkt = h.Packet(r.frame)
	}
	r.cfg.Deliver(&r.pkt, arrived)
}

// reportTick emits one reverse report.
func (r *Receiver) reportTick() {
	now := r.clk.Now()
	rep := Report{
		Seq:        r.reportSeq + 1,
		SentAt:     now,
		CumBytes:   r.recvBytes,
		CumPackets: r.recvPkts,
		HighestSeq: r.highestSeq,
	}
	if r.cfg.AppFeedback != nil {
		rep.ROI, rep.Mismatch, rep.GCCRate = r.cfg.AppFeedback(now)
	}
	r.scratch = rep.AppendTo(r.scratch[:0])
	if err := r.cfg.SendReport(r.scratch); err != nil {
		// ErrNoPeer before the first media packet is routine; either way
		// the report is simply lost, like any UDP datagram.
		r.reportErrs++
		return
	}
	r.reportSeq++
}

// ReceiverStats is a snapshot of the receive pipeline's counters.
type ReceiverStats struct {
	SSRC        uint32
	Bytes       uint64 // accepted media wire bytes
	Packets     uint64 // accepted media datagrams
	HighestSeq  int64  // highest accepted transport sequence (-1: none)
	BadSSRC     int64  // datagrams rejected by SSRC validation
	ParseErrors int64  // datagrams rejected by the wire codec
	FarAhead    int64  // datagrams discarded as more than 3000 sequences ahead
	Late        int64  // jitter buffer: sequence already released
	Duplicates  int64  // jitter buffer: sequence already buffered
	Skipped     int64  // jitter buffer: sequences abandoned at hold expiry
	MaxDepth    int    // jitter buffer high-water mark
	ReportsSent uint32
	ReportErrs  int64
}

// Stats snapshots the pipeline counters (scheduler goroutine).
func (r *Receiver) Stats() ReceiverStats {
	return ReceiverStats{
		SSRC:        r.ssrc,
		Bytes:       r.recvBytes,
		Packets:     r.recvPkts,
		HighestSeq:  r.highestSeq,
		BadSSRC:     r.badSSRC,
		ParseErrors: r.parseErrs,
		FarAhead:    r.farAhead,
		Late:        r.jb.Late(),
		Duplicates:  r.jb.Duplicates(),
		Skipped:     r.jb.Skipped(),
		MaxDepth:    r.jb.MaxDepth(),
		ReportsSent: r.reportSeq,
		ReportErrs:  r.reportErrs,
	}
}
