package realnet

import (
	"testing"
	"time"

	"poi360/internal/lte"
	"poi360/internal/rtp"
	"poi360/internal/simclock"
	"poi360/internal/video"
)

func mediaPacket(seq int64, frameSeq int) *rtp.Packet {
	f := &video.EncodedFrame{Seq: frameSeq, Capture: time.Duration(frameSeq) * 33 * time.Millisecond, Scale: 1}
	return &rtp.Packet{
		FrameSeq: frameSeq, Index: 0, Count: 1, Bytes: rtp.MTU,
		Frame: f, SentAt: f.Capture + time.Millisecond, Seq: seq,
	}
}

// wireBytes is the datagram size of a full-MTU media packet.
const wireBytes = rtp.WireHeaderLen + rtp.MTU

// sendMedia sends the single-packet frame seq as transport sequence seq.
func sendMedia(tr *Transport, seq int64) {
	pkt := mediaPacket(seq, int(seq))
	tr.Send(pkt.Bytes, pkt)
}

// reportTransport is a transport on a fresh clock that discards what it
// sends and records each report it accepts.
func reportTransport() (*simclock.Clock, *Transport, *[]Report) {
	clk, got := simclock.New(), new([]Report)
	return clk, NewTransport(clk, 1, func([]byte) error { return nil }, func(rep Report) { *got = append(*got, rep) }), got
}

func TestTransportSendMarshalsWire(t *testing.T) {
	clk := simclock.New()
	var wire [][]byte
	tr := NewTransport(clk, 0xABCD, func(b []byte) error {
		wire = append(wire, append([]byte(nil), b...))
		return nil
	}, nil)

	pkt := mediaPacket(7, 3)
	if !tr.Send(pkt.Bytes, pkt) {
		t.Fatal("Send reported failure")
	}
	if len(wire) != 1 {
		t.Fatalf("wrote %d datagrams, want 1", len(wire))
	}
	h, err := rtp.ParseWire(wire[0])
	if err != nil {
		t.Fatalf("sent datagram does not parse: %v", err)
	}
	if h.SSRC != 0xABCD || h.Seq != 7 || h.FrameSeq != 3 {
		t.Fatalf("wire header %+v skewed", h)
	}
	if tr.SentPackets() != 1 || tr.SentBytes() != uint64(len(wire[0])) {
		t.Fatalf("accounting: %d pkts / %d bytes", tr.SentPackets(), tr.SentBytes())
	}
	if got := tr.inFlight(); got != len(wire[0]) {
		t.Fatalf("in-flight %d before any ack, want %d", got, len(wire[0]))
	}
}

func TestTransportReportDrivesInflightAndDiag(t *testing.T) {
	clk := simclock.New()
	var sentWire int
	tr := NewTransport(clk, 1, func(b []byte) error { sentWire += len(b); return nil }, nil)
	var diags []lte.DiagReport
	tr.SetDiagListener(func(rep lte.DiagReport) { diags = append(diags, rep) })

	// Send 10 packets during the first diag interval.
	for i := int64(0); i < 10; i++ {
		clk.Schedule(time.Duration(i)*time.Millisecond, func() { sendMedia(tr, i) })
	}

	// A report acking 6 of them arrives at 35 ms.
	clk.Schedule(35*time.Millisecond, func() {
		rep := Report{Seq: 1, SentAt: 30 * time.Millisecond,
			CumBytes: uint64(6 * wireBytes), CumPackets: 6, HighestSeq: 5}
		tr.HandleDatagram(rep.AppendTo(nil))
		if got, want := tr.inFlight(), 4*wireBytes; got != want {
			t.Errorf("in-flight %d after ack, want %d", got, want)
		}
	})
	clk.Run(100 * time.Millisecond)

	// Diag synthesis: silent before the first report, then one per 40 ms
	// with the interval's acked bits and the in-flight estimate.
	if len(diags) != 2 {
		t.Fatalf("got %d diag reports over 100ms, want 2 (at 40/80ms)", len(diags))
	}
	d := diags[0]
	if d.At != 40*time.Millisecond || d.Subframes != 40 {
		t.Errorf("diag shape %+v skewed", d)
	}
	if want := float64(6*wireBytes) * 8; d.SumTBSBits != want {
		t.Errorf("SumTBSBits %g, want %g", d.SumTBSBits, want)
	}
	if want := 4 * wireBytes; d.BufferBytes != want {
		t.Errorf("BufferBytes %d, want %d", d.BufferBytes, want)
	}
	if diags[1].SumTBSBits != 0 {
		t.Errorf("second interval acked %g bits, want 0", diags[1].SumTBSBits)
	}
}

func TestTransportStaleAndCorruptReports(t *testing.T) {
	_, tr, got := reportTransport()
	sendMedia(tr, 0) // reports may ack only what was sent

	fresh := Report{Seq: 5, CumBytes: 100, CumPackets: 1, HighestSeq: 0}
	tr.HandleDatagram(fresh.AppendTo(nil))
	stale := Report{Seq: 4, CumBytes: 50, CumPackets: 1, HighestSeq: 0}
	tr.HandleDatagram(stale.AppendTo(nil))
	tr.HandleDatagram([]byte{1, 2, 3})

	if len(*got) != 1 || (*got)[0].Seq != 5 {
		t.Fatalf("delivered %v, want only report 5", got)
	}
	if tr.StaleReports() != 1 {
		t.Errorf("StaleReports() = %d, want 1", tr.StaleReports())
	}
	if tr.ParseErrors() != 1 {
		t.Errorf("ParseErrors() = %d, want 1", tr.ParseErrors())
	}
}

func TestTransportLossVacatesInflight(t *testing.T) {
	_, tr, _ := reportTransport()
	for i := range int64(10) {
		sendMedia(tr, i)
	}
	// 8 received, highest seq 9: sequences 8..9 in flight, but the two
	// missing below 9 count as vacated at the stream's mean size.
	rep := Report{Seq: 1, CumBytes: uint64(8 * wireBytes), CumPackets: 8, HighestSeq: 9}
	tr.HandleDatagram(rep.AppendTo(nil))
	if got := tr.inFlight(); got != 0 {
		t.Fatalf("in-flight %d with loss acked, want 0", got)
	}
}

// TestTransportInflightIgnoresDuplicates: the in-flight estimate FBCC steers
// is the same whether or not the network duplicated the datagrams that got
// through. Ten packets are sent, the last four are still in flight when the
// report leaves; once with every delivered datagram doubled.
func TestTransportInflightIgnoresDuplicates(t *testing.T) {
	inflight := func(copies int) int {
		clk := simclock.New()
		var tr *Transport
		rx := NewReceiver(clk, ReceiverConfig{
			Deliver:    func(*rtp.Packet, time.Duration) {},
			SendReport: func(b []byte) error { tr.HandleDatagram(b); return nil },
		})
		sent := 0
		tr = NewTransport(clk, 1, func(b []byte) error {
			if sent++; sent <= 6 {
				for i := 0; i < copies; i++ {
					rx.HandleDatagram(b)
				}
			}
			return nil
		}, nil)
		for i := range int64(10) {
			sendMedia(tr, i)
		}
		clk.Run(100 * time.Millisecond)
		if !tr.haveReport {
			t.Fatal("no report reached the sender")
		}
		return tr.inFlight()
	}
	clean, duplicated := inflight(1), inflight(2)
	if want := 4 * (rtp.WireHeaderLen + rtp.MTU); clean != want {
		t.Fatalf("in-flight %d on the clean path, want %d (4 packets)", clean, want)
	}
	if duplicated != clean {
		t.Fatalf("in-flight %d when every datagram arrives twice, %d when once", duplicated, clean)
	}
}

func TestTransportFeedbackFaultGatesReports(t *testing.T) {
	_, tr, got := reportTransport()
	sendMedia(tr, 0) // reports may ack only what was sent
	dropAll := func(time.Duration) (bool, bool, time.Duration) { return true, false, 0 }
	tr.SetFeedbackFault(dropAll)
	rep := Report{Seq: 1}
	tr.HandleDatagram(rep.AppendTo(nil))
	if len(*got) != 0 {
		t.Fatal("dropped report delivered")
	}
	tr.SetFeedbackFault(nil)
	rep.Seq = 2
	tr.HandleDatagram(rep.AppendTo(nil))
	if len(*got) != 1 {
		t.Fatalf("delivered %d reports after clearing the fault, want 1", len(*got))
	}
}

// TestTransportRejectsOverAckingReport: a report that acks more bytes,
// packets or sequences than were sent is rejected. Accepted, it would pin
// the cumulative ack view — which never regresses — above everything sent,
// and the synthesized firmware buffer would read 0 for the rest of the call.
func TestTransportRejectsOverAckingReport(t *testing.T) {
	_, tr, _ := reportTransport()
	for i := range int64(10) {
		sendMedia(tr, i)
	}
	for _, forged := range []Report{
		{Seq: 1, CumBytes: 1 << 40, CumPackets: 1, HighestSeq: 0},
		{Seq: 2, CumBytes: uint64(wireBytes), CumPackets: 1 << 20, HighestSeq: 0},
		{Seq: 3, CumBytes: uint64(wireBytes), CumPackets: 1, HighestSeq: 1 << 20},
	} {
		tr.HandleDatagram(forged.AppendTo(nil))
	}
	if tr.ParseErrors() != 3 || tr.haveReport {
		t.Fatalf("%d of 3 over-acking reports rejected, report accepted: %v", tr.ParseErrors(), tr.haveReport)
	}
	if got, want := tr.inFlight(), 10*wireBytes; got != want {
		t.Fatalf("in-flight %d after forged reports, want %d", got, want)
	}
	honest := Report{Seq: 4, CumBytes: uint64(6 * wireBytes), CumPackets: 6, HighestSeq: 5}
	tr.HandleDatagram(honest.AppendTo(nil))
	if got, want := tr.inFlight(), 4*wireBytes; got != want {
		t.Fatalf("in-flight %d after an honest report, want %d", got, want)
	}
}
