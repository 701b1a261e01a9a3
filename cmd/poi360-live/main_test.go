package main

import (
	"testing"
	"time"

	"poi360/internal/realnet"
	"poi360/internal/rtp"
	"poi360/internal/simclock"
	"poi360/internal/video"
)

// TestClockOffsetThroughReceiver wires clockOffset behind a
// realnet.Receiver as runReceiver does, on a simulated clock. The offset
// follows the smallest (local − peer) difference, every send instant is
// moved by the offset of its own arrival, and a frame's capture instant is
// moved once per run of its packets — also when the frame sequence goes
// back (1, 2, 1), where the second run of frame 1 arrives with a record
// rebuilt from its header, not the one already moved.
func TestClockOffsetThroughReceiver(t *testing.T) {
	type got struct {
		frame           int
		capture, sentAt time.Duration
	}
	clk := simclock.New()
	offset := clockOffset{frameSeq: -1}
	var out []got
	rx := realnet.NewReceiver(clk, realnet.ReceiverConfig{
		Deliver: func(pkt *rtp.Packet, arrived time.Duration) {
			offset.media(pkt, arrived)
			out = append(out, got{pkt.FrameSeq, pkt.Frame.Capture, pkt.SentAt})
		},
	})
	ms := time.Millisecond
	datagrams := []struct {
		frame, index, count int
		capture, sent, at   time.Duration
	}{
		{1, 0, 2, 5 * ms, 10 * ms, 50 * ms}, // offset 40 ms
		{1, 1, 2, 5 * ms, 11 * ms, 51 * ms},
		{2, 0, 1, 15 * ms, 20 * ms, 55 * ms}, // offset drops to 35 ms
		{1, 0, 1, 5 * ms, 30 * ms, 70 * ms},  // frame 1 again; 40 ms stays above the minimum
	}
	for i, d := range datagrams {
		fr := &video.EncodedFrame{Seq: d.frame, Capture: d.capture, Scale: 1}
		pkt := rtp.Packet{FrameSeq: d.frame, Index: d.index, Count: d.count, Bytes: 100, Frame: fr, SentAt: d.sent, Seq: int64(i)}
		wire := pkt.AppendWire(nil, 7)
		clk.Schedule(d.at, func() { rx.HandleDatagram(wire) })
	}
	clk.Run(time.Second)

	want := []got{
		{1, 45 * ms, 50 * ms},
		{1, 45 * ms, 51 * ms}, // same record: not moved a second time
		{2, 50 * ms, 55 * ms},
		{1, 40 * ms, 65 * ms}, // fresh record, moved by the current 35 ms
	}
	if len(out) != len(want) {
		t.Fatalf("delivered %+v, want %+v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("packet %d: got %+v, want %+v", i, out[i], want[i])
		}
	}
	if offset.min != 35*ms {
		t.Errorf("offset %v, want the smallest difference 35ms", offset.min)
	}
}
