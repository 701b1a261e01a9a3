package rtp

import (
	"testing"
	"time"

	"poi360/internal/simclock"
	"poi360/internal/video"
)

// mkPackets builds a count-packet frame with distinct SentAt stamps.
func mkPackets(frameSeq, count int, base time.Duration) []Packet {
	f := &video.EncodedFrame{Seq: frameSeq, Capture: base}
	pkts := make([]Packet, count)
	for i := range pkts {
		pkts[i] = Packet{
			FrameSeq: frameSeq,
			Index:    i,
			Count:    count,
			Bytes:    MTU,
			Frame:    f,
			SentAt:   base + time.Duration(i)*time.Millisecond,
			Seq:      int64(frameSeq*count + i),
		}
	}
	return pkts
}

// TestReassemblerDuplicates feeds UDP-style duplicated packets: the frame
// must complete exactly once, and only after every distinct index arrived —
// duplicates must not inflate the received count toward early completion.
func TestReassemblerDuplicates(t *testing.T) {
	clk := simclock.New()
	var done []CompletedFrame
	r := NewReassembler(clk, func(cf CompletedFrame) { done = append(done, cf) })

	pkts := mkPackets(0, 3, 0)
	r.OnPacket(pkts[0])
	r.OnPacket(pkts[0]) // duplicate
	r.OnPacket(pkts[1])
	r.OnPacket(pkts[1]) // duplicate
	if len(done) != 0 {
		t.Fatalf("frame completed after 2 distinct of 3 packets (duplicates double-counted)")
	}
	r.OnPacket(pkts[2])
	if len(done) != 1 || r.Completed() != 1 {
		t.Fatalf("completions = %d (counter %d), want 1", len(done), r.Completed())
	}
	if got := done[0].Bits; got != 3*MTU*8 {
		t.Errorf("completed bits %g, want %d (duplicates must not add bits)", got, 3*MTU*8)
	}
	if r.Duplicates() != 2 {
		t.Errorf("Duplicates() = %d, want 2", r.Duplicates())
	}

	// A duplicate arriving after its frame completed must not seed a ghost
	// partial (which a later completion would count as a lost frame).
	r.OnPacket(pkts[1])
	for _, p := range mkPackets(1, 2, 40*time.Millisecond) {
		r.OnPacket(p)
	}
	if r.Lost() != 0 {
		t.Errorf("Lost() = %d after post-completion duplicate, want 0", r.Lost())
	}
	if r.Late() != 1 {
		t.Errorf("Late() = %d, want 1", r.Late())
	}
	if r.Completed() != 2 {
		t.Errorf("Completed() = %d, want 2", r.Completed())
	}
}

// TestReassemblerOutOfOrder delivers a frame's packets fully reversed —
// the in-memory simulation never reorders, UDP will.
func TestReassemblerOutOfOrder(t *testing.T) {
	clk := simclock.New()
	var done []CompletedFrame
	r := NewReassembler(clk, func(cf CompletedFrame) { done = append(done, cf) })

	pkts := mkPackets(0, 4, 10*time.Millisecond)
	for i := len(pkts) - 1; i >= 0; i-- {
		r.OnPacket(pkts[i])
	}
	if len(done) != 1 {
		t.Fatalf("completions = %d, want 1", len(done))
	}
	if done[0].Sent != pkts[0].SentAt {
		t.Errorf("Sent = %v, want the earliest pacer departure %v", done[0].Sent, pkts[0].SentAt)
	}
	if r.Duplicates() != 0 || r.Late() != 0 || r.Lost() != 0 {
		t.Errorf("counters dup=%d late=%d lost=%d, want all 0",
			r.Duplicates(), r.Late(), r.Lost())
	}
}

// TestReassemblerStragglerNotDoubleLost pins the double-count fix: a frame
// abandoned as lost whose straggler packet later arrives (reordering past a
// frame boundary) must stay counted lost exactly once.
func TestReassemblerStragglerNotDoubleLost(t *testing.T) {
	clk := simclock.New()
	r := NewReassembler(clk, func(CompletedFrame) {})

	f0 := mkPackets(0, 3, 0)
	r.OnPacket(f0[0]) // f0 partial: packet 1 delayed, packet 2 dropped
	for _, p := range mkPackets(1, 2, 33*time.Millisecond) {
		r.OnPacket(p)
	}
	if r.Lost() != 1 {
		t.Fatalf("Lost() = %d after newer frame completed, want 1", r.Lost())
	}
	// The straggler arrives after its frame was abandoned. Before the
	// floor check it re-opened a partial for frame 0, which the next
	// completion abandoned again: the same frame counted lost twice.
	r.OnPacket(f0[1])
	for _, p := range mkPackets(2, 2, 66*time.Millisecond) {
		r.OnPacket(p)
	}
	if r.Lost() != 1 {
		t.Fatalf("Lost() = %d after straggler, want 1 (frame 0 double-counted)", r.Lost())
	}
	if r.Late() != 1 {
		t.Errorf("Late() = %d, want 1", r.Late())
	}
	if r.Completed() != 2 {
		t.Errorf("Completed() = %d, want 2", r.Completed())
	}
}

// TestReassemblerInterleavedReorder interleaves two frames with the later
// frame finishing first: FIFO-abandon counts the older frame lost, and its
// remaining packets are dropped as late rather than resurrecting it.
func TestReassemblerInterleavedReorder(t *testing.T) {
	clk := simclock.New()
	var done []CompletedFrame
	r := NewReassembler(clk, func(cf CompletedFrame) { done = append(done, cf) })

	f0 := mkPackets(0, 2, 0)
	f1 := mkPackets(1, 2, 33*time.Millisecond)
	r.OnPacket(f0[0])
	r.OnPacket(f1[1])
	r.OnPacket(f1[0]) // frame 1 completes; frame 0 abandoned
	if len(done) != 1 || done[0].Frame.Seq != 1 {
		t.Fatalf("want frame 1 completed first, got %d completions", len(done))
	}
	if r.Lost() != 1 {
		t.Fatalf("Lost() = %d, want 1 (frame 0 abandoned)", r.Lost())
	}
	r.OnPacket(f0[1]) // frame 0's last packet — too late
	if r.Completed() != 1 || r.Lost() != 1 {
		t.Errorf("completed=%d lost=%d after late completion attempt, want 1/1",
			r.Completed(), r.Lost())
	}
	if r.Late() != 1 {
		t.Errorf("Late() = %d, want 1", r.Late())
	}
}

// TestReassemblerBoundsPartialFrames floods the reassembler with forged
// packets, each opening a new frame of 65 535 packets (an 8 KB receipt
// bitmap): the frames it holds partly received stay capped at
// maxPartials, each frame pushed out counts lost once, and its stragglers
// are late.
func TestReassemblerBoundsPartialFrames(t *testing.T) {
	clk := simclock.New()
	var done []CompletedFrame
	r := NewReassembler(clk, func(cf CompletedFrame) { done = append(done, cf) })
	forged := func(frameSeq int) Packet {
		return Packet{FrameSeq: frameSeq, Count: 65535, Bytes: 1, Frame: &video.EncodedFrame{Seq: frameSeq}}
	}
	const n = 10000
	for seq := 1; seq <= n; seq++ {
		r.OnPacket(forged(seq))
		if len(r.partial) > maxPartials {
			t.Fatalf("%d partial frames after %d forged packets, want at most %d", len(r.partial), seq, maxPartials)
		}
	}
	if want := int64(n - maxPartials); r.Lost() != want {
		t.Fatalf("Lost() = %d, want %d", r.Lost(), want)
	}
	straggler := forged(n - maxPartials)
	straggler.Index = 1
	r.OnPacket(straggler) // its frame was pushed out: late, not reopened
	if r.Late() != 1 || r.Lost() != n-maxPartials || len(r.partial) != maxPartials {
		t.Fatalf("straggler of a pushed-out frame: late %d, lost %d, %d partials", r.Late(), r.Lost(), len(r.partial))
	}

	// A newcomer below every frame in flight is itself the one pushed out.
	low := NewReassembler(clk, func(CompletedFrame) {})
	for seq := n; seq > n-maxPartials; seq-- {
		low.OnPacket(forged(seq))
	}
	low.OnPacket(forged(1))
	low.OnPacket(forged(1)) // at the floor now: late
	if low.Lost() != 1 || low.Late() != 1 || len(low.partial) != maxPartials {
		t.Fatalf("lowest newcomer: lost %d, late %d, %d partials", low.Lost(), low.Late(), len(low.partial))
	}

	// An honest frame still completes, abandoning every partial below it.
	for _, p := range mkPackets(n+1, 2, time.Second) {
		r.OnPacket(p)
	}
	if len(done) != 1 || r.Lost() != n || len(r.partial) != 0 {
		t.Fatalf("after an honest frame: %d completed, lost %d, %d partials", len(done), r.Lost(), len(r.partial))
	}
}
