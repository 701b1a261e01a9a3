package session_test

import (
	"encoding/binary"
	"testing"
	"time"

	"poi360/internal/obs"
	"poi360/internal/projection"
	"poi360/internal/ratecontrol"
	"poi360/internal/realnet"
	"poi360/internal/rtp"
	"poi360/internal/session"
	"poi360/internal/simclock"
	"poi360/internal/video"
)

// inGCCBounds reports whether r is a rate some GCCReceiver could report.
func inGCCBounds(r float64) bool {
	return r >= ratecontrol.GCCMinRate && r <= ratecontrol.GCCMaxRate
}

// FuzzSenderReports feeds arbitrary report bytes through
// realnet.Transport.HandleDatagram into a running GCC Sender, wired the
// way TestSenderRejectsForgedReports wires it. The input is cut into
// report-sized datagrams, one every 20 ms. Whatever arrives, nothing
// panics, every frame on the wire is compressed around an on-grid ROI,
// the transport never counts more bytes acked than it has sent, and the
// sender never adopts a rate outside the GCC bounds.
func FuzzSenderReports(f *testing.F) {
	for i, tc := range forgedReports() {
		rep := realnet.Report{Seq: uint32(i + 1), SentAt: 100 * time.Millisecond, ROI: tc.roi, GCCRate: tc.rate, CumBytes: tc.cumBytes}
		f.Add(rep.AppendTo(nil))
	}
	grid := video.DefaultConfig().Grid
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxDatagrams = 8
		clk := simclock.New()
		sender, err := session.NewSender(session.Config{Duration: 400 * time.Millisecond, RC: session.RCGCC, StatsWarmup: -1})
		if err != nil {
			t.Fatal(err)
		}
		bus := obs.NewBus()
		sent := 0.0
		tx := realnet.NewTransport(clk, 1, func(b []byte) error {
			h, err := rtp.ParseWire(b)
			if err != nil {
				t.Fatalf("sender wrote an unparseable datagram: %v", err)
			}
			if !grid.Contains(h.ROI) {
				t.Fatalf("frame on the wire compressed around off-grid ROI %v", h.ROI)
			}
			sent += float64(len(b))
			return nil
		}, func(rep realnet.Report) {
			// The net.report event just emitted carries the acked view in bits.
			if ev := bus.Events(); ev[len(ev)-1].D > 8*sent {
				t.Fatalf("report %d left %g bytes acked of %g sent", rep.Seq, ev[len(ev)-1].D/8, sent)
			}
			sender.OnFeedback(session.Feedback{ROI: rep.ROI, Mismatch: rep.Mismatch, GCCRate: rep.GCCRate, SentAt: rep.SentAt})
		})
		tx.SetProbe(bus.Probe(0))
		if err := sender.Attach(clk, tx); err != nil {
			t.Fatal(err)
		}
		at := 100 * time.Millisecond
		for n := 0; len(data) > 0 && n < maxDatagrams; n++ {
			d := data[:min(len(data), realnet.ReportLen)]
			data = data[len(d):]
			clk.Schedule(at, func() { tx.HandleDatagram(d) })
			at += 20 * time.Millisecond
		}
		clk.Run(400 * time.Millisecond)

		res := sender.Result()
		if len(res.VideoRate) == 0 {
			t.Fatal("sender encoded no frame")
		}
		for _, s := range res.VideoRate {
			if !inGCCBounds(s.V) {
				t.Fatalf("sender adopted rate %v at %v, outside [%g, %g]", s.V, s.At, ratecontrol.GCCMinRate, ratecontrol.GCCMaxRate)
			}
		}
	})
}

// lengthPrefixed frames datagrams the way FuzzViewerDatagrams cuts its
// input: each behind its length as a 2-byte big-endian prefix.
func lengthPrefixed(datagrams ...[]byte) []byte {
	var out []byte
	for _, d := range datagrams {
		out = binary.BigEndian.AppendUint16(out, uint16(len(d)))
		out = append(out, d...)
	}
	return out
}

// hostileStreams are two datagram streams with legal metadata that once
// cost the receive path memory per datagram: frame sequences falling
// while transport sequences rise (a frame record each), and packets each
// opening a new 65 535-packet frame (a partial frame each).
func hostileStreams() [][]byte {
	grid := video.DefaultConfig().Grid
	var falling, opening [][]byte
	for i := 0; i < 8; i++ {
		fr := &video.EncodedFrame{Capture: 10 * time.Millisecond, Scale: 2, SenderROI: projection.Tile{I: grid.W - 1, J: grid.H - 1}, Mode: 3}
		pkt := rtp.Packet{FrameSeq: 7 - i, Count: 1, Bytes: 100, Frame: fr, SentAt: 20 * time.Millisecond, Seq: int64(i)}
		falling = append(falling, pkt.AppendWire(nil, 9))
		pkt = rtp.Packet{FrameSeq: i, Count: 65535, Frame: fr, SentAt: 20 * time.Millisecond, Seq: int64(i)}
		opening = append(opening, pkt.AppendWire(nil, 9))
	}
	return [][]byte{lengthPrefixed(falling...), lengthPrefixed(opening...)}
}

// FuzzViewerDatagrams feeds arbitrary media bytes through
// realnet.Receiver.HandleDatagram into a Viewer, with the receiver's
// reports built from Viewer.Feedback as cmd/poi360-live builds them. The
// input is cut into up to 8 datagrams, each behind a 2-byte length, one
// every 10 ms. Whatever arrives, nothing panics, every packet carries its
// own frame's record, the viewer rejects exactly the packets whose frame
// metadata no sender produces, and every report on the wire carries an
// on-grid ROI and a rate inside the GCC bounds.
func FuzzViewerDatagrams(f *testing.F) {
	for _, tc := range forgedPackets() {
		fr := &video.EncodedFrame{Capture: 10 * time.Millisecond, Scale: tc.scale, SenderROI: tc.roi, Mode: tc.mode}
		pkt := rtp.Packet{Count: 1, Bytes: 100, Frame: fr, SentAt: 20 * time.Millisecond, Seq: tc.seq}
		f.Add(lengthPrefixed(pkt.AppendWire(nil, 9)))
	}
	for _, stream := range hostileStreams() {
		f.Add(stream)
	}
	grid := video.DefaultConfig().Grid
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxDatagrams = 8
		clk := simclock.New()
		viewer, err := session.NewViewer(session.Config{Duration: 300 * time.Millisecond, StatsWarmup: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := viewer.Attach(clk); err != nil {
			t.Fatal(err)
		}
		delivered, legal := 0, 0
		reports := 0
		rx := realnet.NewReceiver(clk, realnet.ReceiverConfig{
			Deliver: func(pkt *rtp.Packet, _ time.Duration) {
				if pkt.Frame.Seq != pkt.FrameSeq {
					t.Fatalf("packet of frame %d delivered with frame %d's record", pkt.FrameSeq, pkt.Frame.Seq)
				}
				delivered++
				if grid.Contains(pkt.Frame.SenderROI) && pkt.Frame.Scale >= 1 {
					legal++
				}
				viewer.OnPacket(pkt)
			},
			SendReport: func(b []byte) error {
				rep, err := realnet.ParseReport(b)
				if err != nil {
					t.Fatalf("viewer wrote an unparseable report: %v", err)
				}
				if !grid.Contains(rep.ROI) {
					t.Fatalf("report on the wire carries off-grid ROI %v", rep.ROI)
				}
				if !inGCCBounds(rep.GCCRate) {
					t.Fatalf("report on the wire carries rate %v, outside [%g, %g]", rep.GCCRate, ratecontrol.GCCMinRate, ratecontrol.GCCMaxRate)
				}
				reports++
				return nil
			},
			AppFeedback: func(now time.Duration) (projection.Tile, time.Duration, float64) {
				fb := viewer.Feedback(now)
				return fb.ROI, fb.Mismatch, fb.GCCRate
			},
		})
		at := 50 * time.Millisecond
		for n := 0; len(data) >= 2 && n < maxDatagrams; n++ {
			size := int(binary.BigEndian.Uint16(data))
			data = data[2:]
			d := data[:min(len(data), size)]
			data = data[len(d):]
			clk.Schedule(at, func() { rx.HandleDatagram(d) })
			at += 10 * time.Millisecond
		}
		clk.Run(300 * time.Millisecond)

		res := viewer.Result()
		if res.BadPackets != delivered-legal {
			t.Fatalf("viewer rejected %d of %d delivered packets, want the %d illegal ones", res.BadPackets, delivered, delivered-legal)
		}
		if delivered > 0 && reports == 0 {
			t.Fatal("a packet was delivered but the viewer never reported")
		}
	})
}
