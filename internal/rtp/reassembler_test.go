package rtp

import (
	"slices"
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

// TestReassemblerTapes feeds each tape's packets — packet i of frame f,
// frame f having n packets of MTU bytes sent a millisecond apart from
// 33f ms, Seq numbering all — to a reassembler and holds it to the
// frames it completes (their sequence numbers, bits, earliest send and
// arrival at the clock's present, the clock moving 10 ms per packet)
// and its completed, duplicate, late and lost counts.
func TestReassemblerTapes(t *testing.T) {
	type pkt struct{ f, n, i int }
	rows := []struct {
		name     string
		tape     []pkt
		done     []int
		counts   [4]int64 // completed, duplicates, late, lost
		bits, at []float64
	}{
		// A frame's duplicates neither complete it nor add bits; one after
		// its completion is late, not lost.
		{"duplicates", []pkt{{0, 3, 0}, {0, 3, 0}, {0, 3, 1}, {0, 3, 1}, {0, 3, 2}, {0, 3, 1}, {1, 2, 0}, {1, 2, 1}},
			[]int{0, 1}, [4]int64{2, 2, 1, 0}, []float64{3 * MTU * 8, 2 * MTU * 8}, []float64{0, 33}},
		// Reversed packets complete the frame, sent at its first departure.
		{"out of order", []pkt{{0, 4, 3}, {0, 4, 2}, {0, 4, 1}, {0, 4, 0}}, []int{0}, [4]int64{1, 0, 0, 0}, []float64{4 * MTU * 8}, []float64{0}},
		// A newer frame's completion abandons an older partial one (lost
		// once), whose stragglers are then late.
		{"abandons older partials", []pkt{{0, 3, 0}, {1, 2, 0}, {1, 2, 1}, {0, 3, 1}, {2, 2, 0}, {2, 2, 1}},
			[]int{1, 2}, [4]int64{2, 0, 1, 1}, []float64{2 * MTU * 8, 2 * MTU * 8}, []float64{33, 66}},
		{"interleaved reorder", []pkt{{0, 2, 0}, {1, 2, 1}, {1, 2, 0}, {0, 2, 1}}, []int{1}, [4]int64{1, 0, 1, 1}, []float64{2 * MTU * 8}, []float64{33}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var done []CompletedFrame
			clk := simclock.New()
			re := NewReassembler(clk, func(cf CompletedFrame) {
				if cf.Arrived != clk.Now() {
					t.Fatalf("%s: frame %d arrived at %v, completed at %v", r.name, cf.Frame.Seq, cf.Arrived, clk.Now())
				}
				done = append(done, cf)
			})
			frames := map[int][]Packet{}
			for k, p := range r.tape {
				if frames[p.f] == nil {
					frames[p.f] = mkPackets(p.f, p.n, time.Duration(33*p.f)*time.Millisecond)
				}
				clk.Run(time.Duration(k+1) * 10 * time.Millisecond)
				re.OnPacket(frames[p.f][p.i])
			}
			var seqs []int
			for k, cf := range done {
				seqs = append(seqs, cf.Frame.Seq)
				if cf.Bits != r.bits[k] || cf.Sent != time.Duration(r.at[k])*time.Millisecond {
					t.Fatalf("%s: completion %d carries %v bits sent at %v, want %v at %v ms", r.name, k, cf.Bits, cf.Sent, r.bits[k], r.at[k])
				}
			}
			if got := [4]int64{re.Completed(), re.Duplicates(), re.Late(), re.Lost()}; !slices.Equal(seqs, r.done) || got != r.counts {
				t.Fatalf("%s: completed frames %v, counts %v; want %v and %v", r.name, seqs, got, r.done, r.counts)
			}
		})
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
