package realnet

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"poi360/internal/projection"
	"poi360/internal/rtp"
	"poi360/internal/simclock"
	"poi360/internal/video"
)

// wireFrame marshals a whole frame's packets, one datagram each.
func wireFrame(frameSeq, count int, firstSeq int64, ssrc uint32) [][]byte {
	f := &video.EncodedFrame{Seq: frameSeq, Capture: time.Duration(frameSeq) * 33 * time.Millisecond, Scale: 1}
	out := make([][]byte, count)
	for i := 0; i < count; i++ {
		pkt := rtp.Packet{
			FrameSeq: frameSeq, Index: i, Count: count, Bytes: 100,
			Frame: f, SentAt: f.Capture + time.Millisecond, Seq: firstSeq + int64(i),
		}
		out[i] = pkt.AppendWire(nil, ssrc)
	}
	return out
}

// seqReceiver is a receiver on a fresh clock, configured by cfg, that
// records the transport sequence of each packet it delivers.
func seqReceiver(cfg ReceiverConfig) (*simclock.Clock, *Receiver, *[]int64) {
	clk, delivered := simclock.New(), new([]int64)
	cfg.Deliver = func(pkt *rtp.Packet, _ time.Duration) { *delivered = append(*delivered, pkt.Seq) }
	return clk, NewReceiver(clk, cfg), delivered
}

func TestReceiverDeliversSharedFrame(t *testing.T) {
	clk := simclock.New()
	var seqs []int64
	var frames []*video.EncodedFrame
	r := NewReceiver(clk, ReceiverConfig{
		Deliver: func(pkt *rtp.Packet, _ time.Duration) {
			seqs = append(seqs, pkt.Seq)
			frames = append(frames, pkt.Frame)
		},
	})
	for _, d := range wireFrame(0, 3, 0, 42) {
		r.HandleDatagram(d)
	}
	clk.Run(100 * time.Millisecond)
	if len(seqs) != 3 || seqs[0] != 0 || seqs[2] != 2 {
		t.Fatalf("delivered %v, want [0 1 2]", seqs)
	}
	if frames[0] != frames[1] || frames[1] != frames[2] {
		t.Fatal("packets of one frame must share one *video.EncodedFrame")
	}
	if frames[0].Seq != 0 || frames[0].Capture != 0 {
		t.Fatalf("frame metadata %+v skewed", frames[0])
	}
	st := r.Stats()
	if st.SSRC != 42 || st.Packets != 3 || st.HighestSeq != 2 {
		t.Fatalf("stats %+v skewed", st)
	}
}

// TestReceiverDuplicatesNotAcked: a datagram the network delivered twice is
// received once. Counting it twice would inflate CumBytes/CumPackets in
// every later report and sink the sender's in-flight estimate for good.
func TestReceiverDuplicatesNotAcked(t *testing.T) {
	clk, r, delivered := seqReceiver(ReceiverConfig{})
	wire := wireFrame(0, 6, 0, 42)
	for _, d := range wire[:3] {
		if len(d) != 164 {
			t.Fatalf("datagram is %d bytes, want 164", len(d))
		}
		r.HandleDatagram(d)
		r.HandleDatagram(d) // the duplicate finds its sequence already released
	}
	st := r.Stats()
	if st.Packets != 3 || st.Bytes != 492 || st.Late != 3 || st.HighestSeq != 2 {
		t.Fatalf("after 3 datagrams delivered twice: %+v, want Packets 3, Bytes 492, Late 3, HighestSeq 2", st)
	}
	// A duplicate of a sequence still held behind a gap is not acked either,
	// but the held packet itself is — on arrival, not at release.
	r.HandleDatagram(wire[5])
	r.HandleDatagram(wire[5])
	st = r.Stats()
	if st.Packets != 4 || st.Bytes != 656 || st.Duplicates != 1 || st.HighestSeq != 5 {
		t.Fatalf("held packet and its duplicate: %+v, want Packets 4, Bytes 656, Duplicates 1, HighestSeq 5", st)
	}
	if !slices.Equal(*delivered, []int64{0, 1, 2}) {
		t.Fatalf("delivered %v before the hold expires, want [0 1 2]", *delivered)
	}
	clk.Run(100 * time.Millisecond)
	if !slices.Equal(*delivered, []int64{0, 1, 2, 5}) {
		t.Fatalf("delivered %v, want [0 1 2 5]", *delivered)
	}
}

// TestReceiverHoldsOneFrameRecord: datagrams whose transport sequence
// rises while their frame sequence falls are each released in order and
// each start another frame. The receiver keeps the current frame's record
// only, so the heap it retains does not grow with the stream.
func TestReceiverHoldsOneFrameRecord(t *testing.T) {
	clk := simclock.New()
	var delivered, skewed int
	r := NewReceiver(clk, ReceiverConfig{
		Deliver: func(pkt *rtp.Packet, _ time.Duration) {
			delivered++
			if pkt.Frame.Seq != pkt.FrameSeq {
				skewed++
			}
		},
	})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const n = 20000
	for i := 0; i < n; i++ {
		r.HandleDatagram(wireFrame(n-1-i, 1, int64(i), 42)[0])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	if delivered != n || skewed != 0 {
		t.Fatalf("delivered %d of %d packets, %d with another frame's record", delivered, n, skewed)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<10 {
		t.Fatalf("receiver retains %d more heap bytes after %d frames, want one frame record", grew, n)
	}
}

func TestReceiverSSRCValidation(t *testing.T) {
	clk, r, delivered := seqReceiver(ReceiverConfig{})
	r.HandleDatagram(wireFrame(0, 1, 0, 7)[0]) // locks SSRC 7
	r.HandleDatagram(wireFrame(1, 1, 1, 9)[0]) // wrong stream
	r.HandleDatagram(wireFrame(2, 1, 2, 7)[0]) // right stream
	r.HandleDatagram([]byte{0x90, 96, 0, 0})   // garbage
	clk.Run(100 * time.Millisecond)
	if n := len(*delivered); n != 2 {
		t.Fatalf("delivered %d packets, want 2", n)
	}
	st := r.Stats()
	if st.BadSSRC != 1 {
		t.Errorf("BadSSRC = %d, want 1", st.BadSSRC)
	}
	if st.ParseErrors != 1 {
		t.Errorf("ParseErrors = %d, want 1", st.ParseErrors)
	}
}

func TestReceiverReportsAccountAndCarryAppFeedback(t *testing.T) {
	clk := simclock.New()
	var reports []Report
	r := NewReceiver(clk, ReceiverConfig{
		Deliver: func(*rtp.Packet, time.Duration) {},
		SendReport: func(b []byte) error {
			rep, err := ParseReport(b)
			if err != nil {
				t.Fatalf("receiver emitted unparseable report: %v", err)
			}
			reports = append(reports, rep)
			return nil
		},
		AppFeedback: func(now time.Duration) (projection.Tile, time.Duration, float64) {
			return projection.Tile{I: 4, J: 2}, 17 * time.Millisecond, 2e6
		},
	})
	var bytes int
	clk.Schedule(5*time.Millisecond, func() {
		for _, d := range wireFrame(0, 2, 0, 1) {
			bytes += len(d)
			r.HandleDatagram(d)
		}
	})
	clk.Run(90 * time.Millisecond)
	if len(reports) != 2 {
		t.Fatalf("got %d reports over 90ms at 40ms cadence, want 2", len(reports))
	}
	rep := reports[0]
	if rep.Seq != 1 || rep.CumPackets != 2 || rep.CumBytes != uint64(bytes) || rep.HighestSeq != 1 {
		t.Fatalf("report accounting %+v skewed", rep)
	}
	if rep.ROI != (projection.Tile{I: 4, J: 2}) || rep.Mismatch != 17*time.Millisecond || rep.GCCRate != 2e6 {
		t.Fatalf("app feedback %+v skewed", rep)
	}
	if reports[1].Seq != 2 {
		t.Fatalf("report seq %d, want 2", reports[1].Seq)
	}
}

func TestReceiverReportsWaitForPeer(t *testing.T) {
	clk, r, _ := seqReceiver(ReceiverConfig{SendReport: func([]byte) error { return ErrNoPeer }})
	clk.Run(200 * time.Millisecond)
	st := r.Stats()
	if st.ReportsSent != 0 {
		t.Fatalf("ReportsSent = %d with no peer, want 0", st.ReportsSent)
	}
	if st.ReportErrs == 0 {
		t.Fatal("ErrNoPeer ticks not counted")
	}
}

// scheduleSeqs delivers one single-packet frame per sequence, from the
// given instant on at one per millisecond.
func scheduleSeqs(clk *simclock.Clock, r *Receiver, from time.Duration, seqs ...int64) {
	for i, seq := range seqs {
		d := wireFrame(int(seq), 1, seq, 42)[0]
		clk.Schedule(from+time.Duration(i)*time.Millisecond, func() { r.HandleDatagram(d) })
	}
}

// TestReceiverDiscardsFarAheadSequence: one datagram whose sequence is far
// ahead of the stream cannot end the call. Accepted, it would be held for
// Hold and then move the jitter buffer's floor past every genuine sequence
// before it, so each genuine packet after that would arrive "late".
func TestReceiverDiscardsFarAheadSequence(t *testing.T) {
	clk, r, got := seqReceiver(ReceiverConfig{})
	genuine := make([]int64, 120)
	for i := range genuine {
		genuine[i] = int64(i)
	}
	scheduleSeqs(clk, r, 0, genuine[:30]...)
	scheduleSeqs(clk, r, 30*time.Millisecond, 30+1<<20) // forged
	scheduleSeqs(clk, r, 31*time.Millisecond, genuine[30:]...)
	clk.Run(time.Second)
	delivered := *got

	st := r.Stats()
	if len(delivered) != len(genuine) || st.Late != 0 || st.Skipped != 0 {
		t.Fatalf("delivered %d of %d genuine packets, %d late, %d skipped", len(delivered), len(genuine), st.Late, st.Skipped)
	}
	for i, seq := range delivered {
		if seq != genuine[i] {
			t.Fatalf("delivery %d is sequence %d, want %d", i, seq, genuine[i])
		}
	}
	if st.HighestSeq != 119 || st.FarAhead != 1 {
		t.Fatalf("HighestSeq %d, FarAhead %d; want 119, 1", st.HighestSeq, st.FarAhead)
	}
}

// TestReceiverResyncsOnFarAheadSuccessor: a far-ahead datagram followed by
// its successor is a sender that restarted its sequence (RFC 3550 A.1), and
// the stream follows it: every packet after the first of the new run is
// delivered in order, none late.
func TestReceiverResyncsOnFarAheadSuccessor(t *testing.T) {
	clk, r, got := seqReceiver(ReceiverConfig{})
	const base = 1 << 20
	var restarted []int64
	for seq := int64(base); seq < base+20; seq++ {
		restarted = append(restarted, seq)
	}
	scheduleSeqs(clk, r, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	scheduleSeqs(clk, r, 10*time.Millisecond, restarted...)
	clk.Run(time.Second)
	delivered := *got

	st := r.Stats()
	tail := restarted[1:]
	if len(delivered) < len(tail) || st.Late != 0 || st.HighestSeq != base+19 {
		t.Fatalf("delivered %v, %d late, HighestSeq %d", delivered, st.Late, st.HighestSeq)
	}
	for i, seq := range delivered[len(delivered)-len(tail):] {
		if seq != tail[i] {
			t.Fatalf("after the restart delivered %v, want it to end in %v", delivered, tail)
		}
	}
}
