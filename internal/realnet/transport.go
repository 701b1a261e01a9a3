// The sender-side live transport: the netsim.Transport implementation a
// live session.Sender drives exactly as a simulated one drives its cellular
// transport. Send marshals the boxed *rtp.Packet with the wire
// codec and writes one UDP datagram; receiver reports arriving on the
// reverse channel keep a cumulative-ack view from which the transport
// synthesizes the two quantities FBCC reads from the modem diag feed
// (DESIGN.md §16): the in-flight byte estimate stands in for the firmware
// buffer occupancy, and the per-interval delivered bits stand in for the
// granted TBS sum. Until the first report arrives (receiver not up yet,
// reverse path dead) the diag feed is silent and FBCC's staleness watchdog
// degrades to GCC — the same graceful-degradation path the fault scripts
// exercise in simulation. Once a report has arrived synthesis continues from
// the last cumulative view, so a later report blackout reads as zero
// delivered bits and a growing buffer, not as silence.

package realnet

import (
	"time"

	"poi360/internal/lte"
	"poi360/internal/netsim"
	"poi360/internal/obs"
	"poi360/internal/rtp"
	"poi360/internal/simclock"
)

// Transport is the sender half of the live backend. Construct with
// NewTransport, then attach a session.Sender to it as its
// netsim.Transport. All methods must run on the scheduler goroutine
// (Link.Pump delivers datagrams there).
type Transport struct {
	clk   simclock.Scheduler
	write func([]byte) error
	ssrc  uint32

	scratch []byte // wire marshal buffer, reused across Send calls

	// Forward-path accounting.
	sentBytes uint64 // cumulative wire bytes written
	sentPkts  uint64
	sentSeq   int64 // highest transport sequence written; -1 before any
	writeErrs int64

	// Reverse-path state from receiver reports.
	haveReport   bool
	lastSeq      uint32
	lastReportAt time.Duration // receipt instant of the last accepted report
	ackedBytes   float64       // CumBytes plus the estimated wire bytes of lost packets
	staleRpts    int64
	parseErrs    int64
	onReport     func(Report)
	probe        *obs.Probe // NetReport emissions (nil = disabled)

	// Synthesized diagnostics.
	diag          func(lte.DiagReport)
	diagLastAcked float64

	fault netsim.LinkFault
}

// NewTransport builds the sender-side transport. write sends one datagram
// towards the receiver (Link.Write); onReport, if non-nil, receives each
// accepted receiver report so the application can integrate ROI, mismatch
// and the GCC rate. The diagnostic synthesis ticker starts immediately and
// stays silent until the first report arrives.
func NewTransport(clk simclock.Scheduler, ssrc uint32, write func([]byte) error, onReport func(Report)) *Transport {
	t := &Transport{
		clk:      clk,
		write:    write,
		ssrc:     ssrc,
		scratch:  make([]byte, 0, maxDatagram),
		sentSeq:  -1,
		onReport: onReport,
	}
	clk.Ticker(lte.DefaultDiagPeriod, t.diagTick)
	return t
}

// Send implements netsim.Transport: payload must be a *rtp.Packet (the
// boxed form the session's pacer emits). The wire datagram is written
// towards the receiver; false reports a socket-level write failure — the
// live analogue of an access-buffer drop.
func (t *Transport) Send(bytes int, payload any) bool {
	pkt := payload.(*rtp.Packet)
	t.scratch = pkt.AppendWire(t.scratch[:0], t.ssrc)
	if err := t.write(t.scratch); err != nil {
		t.writeErrs++
		return false
	}
	t.sentBytes += uint64(len(t.scratch))
	t.sentPkts++
	if pkt.Seq > t.sentSeq {
		t.sentSeq = pkt.Seq
	}
	return true
}

// SendFeedback implements netsim.Transport as a no-op: what attaches here
// is a session.Sender, which never originates feedback — the viewer lives
// in the receiver process and answers through the reports.
func (t *Transport) SendFeedback(any) {}

// inFlight is the in-flight estimate sent − acked − lost, the live
// stand-in for the firmware buffer level FBCC steers (Eq. 7). Before the
// first report it grows with sent bytes, exactly like a buffer nothing is
// draining.
func (t *Transport) inFlight() int {
	inflight := float64(t.sentBytes) - t.ackedBytes
	if inflight < 0 {
		return 0
	}
	return int(inflight)
}

// SetDiagListener implements netsim.Transport: fn receives a synthesized
// lte.DiagReport every lte.DefaultDiagPeriod once receiver reports flow.
func (t *Transport) SetDiagListener(fn func(lte.DiagReport)) { t.diag = fn }

// SetProbe installs the transport's telemetry probe (nil disables): every
// accepted receiver report emits a net.report event carrying its sequence,
// the gap since the previous accepted report, and the resulting in-flight
// and acked views. The session attaches its own probe here through the
// optional SetProbe transport interface.
func (t *Transport) SetProbe(p *obs.Probe) { t.probe = p }

// SetFeedbackFault implements netsim.Transport. Live mode has a real
// network to provide disturbances, but the hook still works — applied at
// the report-delivery point — so fault scripts can be rehearsed against
// the live stack too.
func (t *Transport) SetFeedbackFault(fn netsim.LinkFault) { t.fault = fn }

// HandleDatagram ingests one reverse-channel datagram (scheduler
// goroutine; wire it as the sender Pump's handler). A report that acks
// more bytes, packets or sequences than Send has written is rejected like
// a malformed one: accepted, it would pin the cumulative ack view — which
// never regresses — above everything sent for the rest of the call.
func (t *Transport) HandleDatagram(b []byte) {
	rep, err := ParseReport(b)
	if err != nil || rep.CumBytes > t.sentBytes || rep.CumPackets > t.sentPkts || rep.HighestSeq > t.sentSeq {
		t.parseErrs++
		return
	}
	if t.fault != nil {
		drop, dup, extra := t.fault(t.clk.Now())
		if drop {
			return
		}
		copies := 1
		if dup {
			copies = 2
		}
		for i := 0; i < copies; i++ {
			if extra > 0 {
				t.clk.ScheduleAfter(extra, func() { t.applyReport(rep) })
			} else {
				t.applyReport(rep)
			}
		}
		return
	}
	t.applyReport(rep)
}

// applyReport integrates one report, dropping reordered ones.
func (t *Transport) applyReport(rep Report) {
	if t.haveReport && rep.Seq <= t.lastSeq {
		t.staleRpts++
		return
	}
	now := t.clk.Now()
	var gap time.Duration
	if t.haveReport {
		gap = now - t.lastReportAt
	}
	t.lastSeq = rep.Seq
	t.lastReportAt = now
	t.haveReport = true
	// Packets between the highest sequence seen and the ones received are
	// lost or still in flight behind it; counting them acked keeps the
	// in-flight estimate from inflating permanently under loss. Their wire
	// size is estimated at the stream's mean.
	acked := float64(rep.CumBytes)
	if lost := float64(rep.HighestSeq+1) - float64(rep.CumPackets); lost > 0 && rep.CumPackets > 0 {
		acked += lost * float64(rep.CumBytes) / float64(rep.CumPackets)
	}
	if sent := float64(t.sentBytes); acked > sent { // the loss estimate cannot ack more than was sent
		acked = sent
	}
	if acked > t.ackedBytes { // cumulative view never regresses
		t.ackedBytes = acked
	}
	t.probe.Emit(now, obs.NetReport,
		float64(rep.Seq), gap.Seconds(), float64(t.inFlight()), t.ackedBytes*8)
	if t.onReport != nil {
		t.onReport(rep)
	}
}

// diagTick synthesizes one diagnostic report per period: buffer = the
// in-flight estimate, TBS sum = bits newly acked this interval, over the
// interval's subframe count — the same shape lte.UE emits, so FBCC's
// Eq. 3–7 pipeline runs unchanged.
func (t *Transport) diagTick() {
	delta := t.ackedBytes - t.diagLastAcked
	t.diagLastAcked = t.ackedBytes
	if t.diag == nil || !t.haveReport {
		return
	}
	t.diag(lte.DiagReport{
		At:          t.clk.Now(),
		BufferBytes: t.inFlight(),
		SumTBSBits:  delta * 8,
		Subframes:   int(lte.DefaultDiagPeriod / lte.Subframe),
	})
}

// SentPackets reports media datagrams written.
func (t *Transport) SentPackets() uint64 { return t.sentPkts }

// SentBytes reports cumulative wire bytes written.
func (t *Transport) SentBytes() uint64 { return t.sentBytes }

// WriteErrors reports socket-level send failures.
func (t *Transport) WriteErrors() int64 { return t.writeErrs }

// StaleReports reports reverse-channel reports dropped as reordered.
func (t *Transport) StaleReports() int64 { return t.staleRpts }

// ParseErrors reports reverse-channel datagrams rejected by the codec or
// as acking more than was sent.
func (t *Transport) ParseErrors() int64 { return t.parseErrs }

var _ netsim.Transport = (*Transport)(nil)
