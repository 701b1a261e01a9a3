package session_test

import (
	"reflect"
	"testing"
	"time"

	"poi360/internal/netsim"
	"poi360/internal/projection"
	"poi360/internal/ratecontrol"
	"poi360/internal/realnet"
	"poi360/internal/rtp"
	"poi360/internal/session"
	"poi360/internal/simclock"
	"poi360/internal/video"
)

// liveCall is cmd/poi360-live's two processes on one simulation clock: a
// Sender on realnet.Transport and a Viewer behind realnet.Receiver, joined
// by two netsim.DelayLinks that carry copies of the datagram bytes. With
// one clock there is no offset to estimate, so the command's clock shim is
// the only piece of its wiring absent here.
type liveCall struct {
	clk     *simclock.Clock
	sender  *session.Sender
	viewer  *session.Viewer
	tx      *realnet.Transport
	rx      *realnet.Receiver
	reports int
}

// newLiveCall wires a call of the given length; revFault, if non-nil,
// disturbs the reverse (report) link.
func newLiveCall(t *testing.T, rc session.RCKind, duration time.Duration, revFault netsim.LinkFault) *liveCall {
	t.Helper()
	const oneWay = 20 * time.Millisecond
	cfg := session.Config{
		Duration:    duration,
		RC:          rc,
		Path:        netsim.PathProfile{Name: "test", CoreBase: oneWay, RevBase: oneWay},
		Seed:        7,
		StatsWarmup: -1, // record from the first frame
	}
	c := &liveCall{clk: simclock.New()}
	var err error
	if c.sender, err = session.NewSender(cfg); err != nil {
		t.Fatal(err)
	}
	if c.viewer, err = session.NewViewer(cfg); err != nil {
		t.Fatal(err)
	}
	grid := c.sender.Config().Video.Grid

	// Both ends reuse their marshal buffer, so each link carries a copy.
	link := func(seed int64, deliver func([]byte)) *netsim.DelayLink {
		return netsim.NewDelayLink(c.clk, seed, oneWay, 2*time.Millisecond, 0, 0,
			func(p any) { deliver(p.([]byte)) })
	}
	fwd := link(1, func(b []byte) { c.rx.HandleDatagram(b) })
	rev := link(2, func(b []byte) { c.tx.HandleDatagram(b) })
	rev.SetFault(revFault)
	send := func(l *netsim.DelayLink) func([]byte) error {
		return func(b []byte) error {
			l.Send(append([]byte(nil), b...))
			return nil
		}
	}

	c.tx = realnet.NewTransport(c.clk, 0x360, send(fwd), func(rep realnet.Report) {
		c.reports++
		c.sender.OnFeedback(session.Feedback{
			ROI:         rep.ROI,
			Orientation: grid.Center(rep.ROI),
			Mismatch:    rep.Mismatch,
			GCCRate:     rep.GCCRate,
			SentAt:      rep.SentAt,
		})
	})
	if err := c.sender.Attach(c.clk, c.tx); err != nil {
		t.Fatal(err)
	}
	if err := c.viewer.Attach(c.clk); err != nil {
		t.Fatal(err)
	}
	c.rx = realnet.NewReceiver(c.clk, realnet.ReceiverConfig{
		Deliver:    func(pkt *rtp.Packet, _ time.Duration) { c.viewer.OnPacket(pkt) },
		SendReport: send(rev),
		AppFeedback: func(now time.Duration) (projection.Tile, time.Duration, float64) {
			fb := c.viewer.Feedback(now)
			return fb.ROI, fb.Mismatch, fb.GCCRate
		},
	})
	return c
}

// run plays the call out and returns the two endpoints' results.
func (c *liveCall) run(d time.Duration) (sent, viewed *session.Result) {
	c.clk.Run(d)
	return c.sender.Result(), c.viewer.Result()
}

// TestLiveCallDeterministic runs the live wiring — the shared endpoint
// halves over the real-transport codec, jitter buffer, reports and
// synthesized diag — on virtual time, under both rate controllers.
func TestLiveCallDeterministic(t *testing.T) {
	const duration = 8 * time.Second
	for _, rc := range []session.RCKind{session.RCFBCC, session.RCGCC} {
		t.Run(rc.String(), func(t *testing.T) {
			c := newLiveCall(t, rc, duration, nil)
			sent, viewed := c.run(duration)

			if sent.FramesSent < 200 || viewed.FramesDelivered < sent.FramesSent-5 || viewed.FramesLost != 0 {
				t.Fatalf("frames: sent %d, delivered %d, lost %d", sent.FramesSent, viewed.FramesDelivered, viewed.FramesLost)
			}
			if c.reports < 150 {
				t.Fatalf("only %d reports reached the sender", c.reports)
			}
			if st := c.rx.Stats(); st.ParseErrors != 0 || c.tx.ParseErrors() != 0 {
				t.Fatalf("parse errors: media %d, reports %d", st.ParseErrors, c.tx.ParseErrors())
			}
			if sent.BadFeedback != 0 || viewed.BadPackets != 0 || sent.StaleFeedback != 0 {
				t.Fatalf("well-formed call rejected input: %d feedback, %d packets, %d stale",
					sent.BadFeedback, viewed.BadPackets, sent.StaleFeedback)
			}
			if len(sent.Diag) < 150 {
				t.Fatalf("only %d synthesized diag reports reached the sender", len(sent.Diag))
			}
			rates := sent.RTPRate
			if rc == session.RCFBCC {
				if first, last := rates[0].V, rates[len(rates)-1].V; first == last {
					t.Fatalf("FBCC pacing rate never left its initial %g bit/s", first)
				}
				if sent.FBCCDegradations != 0 {
					t.Fatalf("watchdog fired %d times on a healthy report channel", sent.FBCCDegradations)
				}
			} else {
				for i, r := range rates {
					if want := ratecontrol.GCCPacingFactor * sent.VideoRate[i].V; r.V != want {
						t.Fatalf("GCC frame %d paced at %g, want %g", i, r.V, want)
					}
				}
			}

			again := newLiveCall(t, rc, duration, nil)
			sent2, viewed2 := again.run(duration)
			if !reflect.DeepEqual(sent, sent2) || !reflect.DeepEqual(viewed, viewed2) {
				t.Fatal("two runs of the same live call differ")
			}
		})
	}
}

// TestLiveCallWatchdogTripsAndRecovers holds the report channel down for
// the first second: the transport has nothing to synthesize diag from, the
// FBCC watchdog degrades the sender to GCC pacing, and the first reports
// after the channel returns re-arm the cross-layer loop. (The blackout sits
// at call set-up because realnet.Transport keeps synthesizing diag from its
// last cumulative view once any report has arrived; a mid-call blackout
// starves FBCC of acked bits but does not silence its feed.)
func TestLiveCallWatchdogTripsAndRecovers(t *testing.T) {
	const (
		duration = 6 * time.Second
		restored = time.Second
	)
	blackout := func(now time.Duration) (drop, dup bool, extra time.Duration) {
		return now < restored, false, 0
	}
	sent, viewed := newLiveCall(t, session.RCFBCC, duration, blackout).run(duration)

	if sent.FBCCDegradations != 1 {
		t.Fatalf("watchdog fired %d times, want exactly once", sent.FBCCDegradations)
	}
	if len(sent.Diag) == 0 || sent.Diag[0].At < restored {
		t.Fatalf("diag before the report channel came up: %+v", sent.Diag[:min(len(sent.Diag), 1)])
	}
	var degraded, recovered bool
	for i, r := range sent.RTPRate {
		gccPaced := r.V == ratecontrol.GCCPacingFactor*sent.VideoRate[i].V
		switch {
		case r.At > 500*time.Millisecond && r.At < restored && !gccPaced:
			t.Fatalf("frame at %v paced at %g while the watchdog held", r.At, r.V)
		case r.At > 500*time.Millisecond && r.At < restored:
			degraded = true
		case r.At > restored+time.Second && !gccPaced:
			recovered = true
		}
	}
	if !degraded || !recovered {
		t.Fatalf("degraded during the blackout: %v, FBCC pacing afterwards: %v", degraded, recovered)
	}
	if viewed.FramesLost != 0 || viewed.FramesDelivered < 150 {
		t.Fatalf("media suffered from a report blackout: delivered %d, lost %d", viewed.FramesDelivered, viewed.FramesLost)
	}
}

// forgedReport is one report a hostile peer could write, and whether the
// sender must reject it.
type forgedReport struct {
	name     string
	roi      projection.Tile
	rate     float64
	cumBytes uint64 // media bytes the report acks
	bad      bool
}

func forgedReports() []forgedReport {
	grid := video.DefaultConfig().Grid
	return []forgedReport{
		{"column past the grid", projection.Tile{I: grid.W, J: 0}, 1e6, 0, true},
		{"row past the grid", projection.Tile{I: 0, J: grid.H}, 1e6, 0, true},
		{"both bytes saturated", projection.Tile{I: 255, J: 255}, 1e6, 0, true},
		{"zero rate", projection.Tile{I: 1, J: 1}, 0, 0, true},
		{"subnormal rate", projection.Tile{I: 1, J: 1}, 5e-324, 0, true},
		{"rate past any GCC", projection.Tile{I: 1, J: 1}, 1e300, 0, true},
		{"acks more than was sent", projection.Tile{I: 1, J: 1}, 1e6, 1 << 40, true},
		{"well-formed", projection.Tile{I: grid.W - 1, J: grid.H - 1}, 1e6, 0, false},
	}
}

// forgedPacket is the frame metadata and transport sequence of a media
// datagram a hostile peer could write, and whether the viewer must reject
// it.
type forgedPacket struct {
	name  string
	roi   projection.Tile
	scale float64
	mode  int
	seq   int64
	bad   bool
}

// farAheadSeq is a sequence no sender reaches within a call: the receiver
// discards a datagram that far ahead of the stream before the viewer
// sees it.
const farAheadSeq = 1 << 20

func forgedPackets() []forgedPacket {
	grid := video.DefaultConfig().Grid
	return []forgedPacket{
		{"column past the grid", projection.Tile{I: grid.W, J: 0}, 1, 3, 0, true},
		{"row past the grid", projection.Tile{I: 0, J: grid.H}, 1, 3, 0, true},
		{"off-grid without a mode", projection.Tile{I: 255, J: 255}, 1, 0, 0, true},
		{"scale below one", projection.Tile{I: 1, J: 1}, 0.5, 3, 0, true},
		{"zero scale", projection.Tile{I: 1, J: 1}, 0, 3, 0, true},
		{"sequence far ahead", projection.Tile{I: 1, J: 1}, 1, 3, farAheadSeq, true},
		{"unknown mode", projection.Tile{I: 1, J: 1}, 1, 77, 0, false},
		{"well-formed", projection.Tile{I: grid.W - 1, J: grid.H - 1}, 2, 3, 0, false},
	}
}

// TestSenderRejectsForgedReports feeds a running sender report datagrams a
// hostile peer could write: ParseReport accepts any ROI byte pair, and an
// off-grid tile used to reach the Eq. 1 matrix index on the next frame; it
// accepts any finite non-negative rate, and a GCC sender adopting 5e-324
// paced at ≈ 0 while its queue grew by a frame per capture; and a report
// acking more than was sent used to pin the synthesized firmware buffer
// at 0 for the rest of the call. The transport rejects the last kind, the
// sender the others.
func TestSenderRejectsForgedReports(t *testing.T) {
	grid := video.DefaultConfig().Grid
	for _, tc := range forgedReports() {
		t.Run(tc.name, func(t *testing.T) {
			clk := simclock.New()
			sender, err := session.NewSender(session.Config{Duration: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			var wireROI projection.Tile // what the frames on the wire were compressed around
			tx := realnet.NewTransport(clk, 1, func(b []byte) error {
				h, err := rtp.ParseWire(b)
				if err != nil {
					t.Fatal(err)
				}
				wireROI = h.ROI
				return nil
			}, func(rep realnet.Report) {
				sender.OnFeedback(session.Feedback{ROI: rep.ROI, Mismatch: rep.Mismatch, GCCRate: rep.GCCRate, SentAt: rep.SentAt})
			})
			if err := sender.Attach(clk, tx); err != nil {
				t.Fatal(err)
			}
			clk.Schedule(200*time.Millisecond, func() {
				rep := realnet.Report{Seq: 1, SentAt: clk.Now(), ROI: tc.roi, GCCRate: tc.rate, CumBytes: tc.cumBytes}
				tx.HandleDatagram(rep.AppendTo(nil))
			})
			clk.Run(time.Second)

			if bad, rejected := int64(sender.Result().BadFeedback), tx.ParseErrors(); (bad+rejected == 1) != tc.bad {
				t.Fatalf("BadFeedback = %d, transport rejected %d, want rejected = %v", bad, rejected, tc.bad)
			}
			if !tc.bad && wireROI != tc.roi {
				t.Fatalf("accepted report did not steer the ROI: frames carry %v, want %v", wireROI, tc.roi)
			}
			if tc.bad && !grid.Contains(wireROI) {
				t.Fatalf("rejected ROI %v reached the wire", wireROI)
			}
		})
	}
}

// TestViewerRejectsForgedPackets feeds a viewer, after one legal frame,
// media datagrams whose metadata no sender produces: rtp.ParseWire accepts
// any ROI byte pair and any non-negative scale. Mode labels outside the
// Eq. 1 set stay legal — the two-level and pyramid schemes carry none —
// and read as uncompressed. A frame whose sequence jumps far ahead never
// reaches the viewer: the receiver discards its first datagram, and the
// second alone (a resync) completes no frame.
func TestViewerRejectsForgedPackets(t *testing.T) {
	for _, tc := range forgedPackets() {
		t.Run(tc.name, func(t *testing.T) {
			clk := simclock.New()
			viewer, err := session.NewViewer(session.Config{Duration: time.Second, StatsWarmup: -1})
			if err != nil {
				t.Fatal(err)
			}
			if err := viewer.Attach(clk); err != nil {
				t.Fatal(err)
			}
			rx := realnet.NewReceiver(clk, realnet.ReceiverConfig{
				Deliver: func(pkt *rtp.Packet, _ time.Duration) { viewer.OnPacket(pkt) },
			})
			clk.Schedule(50*time.Millisecond, func() {
				legal := &video.EncodedFrame{Capture: 10 * time.Millisecond, Scale: 1, SenderROI: projection.Tile{I: 1, J: 1}, Mode: 3}
				f := &video.EncodedFrame{Seq: 1, Capture: 43 * time.Millisecond, Scale: tc.scale, SenderROI: tc.roi, Mode: tc.mode}
				for i := 0; i < 2; i++ {
					pkt := rtp.Packet{Index: i, Count: 2, Bytes: 100, Frame: legal, SentAt: 20 * time.Millisecond, Seq: int64(i)}
					rx.HandleDatagram(pkt.AppendWire(nil, 9))
				}
				for i := 0; i < 2; i++ {
					pkt := rtp.Packet{FrameSeq: 1, Index: i, Count: 2, Bytes: 100, Frame: f, SentAt: 45 * time.Millisecond, Seq: 2 + tc.seq + int64(i)}
					rx.HandleDatagram(pkt.AppendWire(nil, 9))
				}
			})
			clk.Run(time.Second)

			res := viewer.Result()
			wantBad := 0
			if tc.bad && tc.seq != farAheadSeq {
				wantBad = 2
			}
			if tc.bad && (res.BadPackets != wantBad || res.FramesDelivered != 1) {
				t.Fatalf("forged frame: %d packets rejected (want %d), %d frames displayed", res.BadPackets, wantBad, res.FramesDelivered)
			}
			if !tc.bad && (res.BadPackets != 0 || res.FramesDelivered != 2 || len(res.ROIPSNRs) != 2) {
				t.Fatalf("legal frame: %d packets rejected, %d frames displayed", res.BadPackets, res.FramesDelivered)
			}
			if far := rx.Stats().FarAhead; far != 0 != (tc.seq == farAheadSeq) {
				t.Fatalf("receiver discarded %d datagrams as far ahead", far)
			}
		})
	}
}
