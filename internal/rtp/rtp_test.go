package rtp

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"poi360/internal/projection"
	"poi360/internal/simclock"
	"poi360/internal/video"
)

func frameOfBits(seq int, bits float64) *video.EncodedFrame {
	return &video.EncodedFrame{Seq: seq, Bits: bits, SenderROI: projection.Tile{}}
}

// AppendPackets partitions a frame into chunks of at most MTU bytes, each
// carrying the frame, its index and the packet count, that sum to the
// frame's size in whole bytes (4 bits take one byte).
func TestPacketize(t *testing.T) {
	partitions := func(bits float64, bytes, count int) bool {
		f := frameOfBits(3, bits)
		pkts := AppendPackets(nil, f)
		sum := 0
		for i, p := range pkts {
			if p.Bytes <= 0 || p.Bytes > MTU || p.FrameSeq != 3 || p.Index != i || p.Count != len(pkts) || p.Frame != f {
				return false
			}
			sum += p.Bytes
		}
		return sum == bytes && (count == 0 || len(pkts) == count)
	}
	if !partitions(8*float64(MTU*2+100), MTU*2+100, 3) || !partitions(4, 1, 1) {
		t.Fatal("a frame of two MTUs and 100 bytes, or of 4 bits, packetized wrong")
	}
	if err := quick.Check(func(kb uint16) bool { return partitions(float64(int(kb)+1)*8, int(kb)+1, 0) }, nil); err != nil {
		t.Fatal(err)
	}
}

// queuedBits sums the bits still waiting in p's video buffer.
func queuedBits(p *Pacer) float64 {
	bits := 0.0
	for i := 0; i < p.runs.Len(); i++ {
		r := p.runs.At(i)
		bits += 8 * (float64(r.n-1)*float64(r.size) + float64(r.last))
	}
	return bits
}

// sentBits is a pacer on a fresh clock that sends every packet (counting
// its bits and keeping the last) or, with reject, refuses every one.
func sentBits(rate float64, reject bool) (*simclock.Clock, *Pacer, *float64, *Packet) {
	clk := simclock.New()
	bits, last := new(float64), new(Packet)
	p := NewPacer(clk, DefaultPacerTick, rate, func(pkt Packet) bool {
		*bits += float64(pkt.Bytes) * 8
		*last = pkt
		return !reject
	})
	return clk, p, bits, last
}

// The pacer sends at its rate, keeps the rest queued, follows SetRate and
// ignores a rate that is not positive and finite.
func TestPacerRateLimits(t *testing.T) {
	clk, p, sent, _ := sentBits(1e6, false)
	t.Run("FirstSecond", func(t *testing.T) {
		p.Enqueue(AppendPackets(nil, frameOfBits(0, 10e6)))
		clk.Run(time.Second)
		if *sent < 0.9e6 || *sent > 1.15e6 {
			t.Fatalf("sent %v bits in 1s at 1Mbps", *sent)
		}
		if q := queuedBits(p); math.Abs(q-(10e6-*sent)) > 1 {
			t.Fatalf("queue accounting: %v", q)
		}
	})
	t.Run("SetRate", func(t *testing.T) {
		if p.SetRate(4e6); p.Rate() != 4e6 {
			t.Fatal("SetRate ignored")
		}
		for second := 2; second <= 3; second++ {
			before := *sent
			clk.Run(time.Duration(second) * time.Second)
			if got := *sent - before; got < 3.5e6 || got > 4.5e6 {
				t.Fatalf("second %d sent %v bits, want ≈4e6", second, got)
			}
			for _, bad := range []float64{0, -1e6, math.NaN(), math.Inf(1), math.Inf(-1)} {
				if p.SetRate(bad); p.Rate() != 4e6 {
					t.Fatalf("rate %g should be ignored", bad)
				}
			}
		}
	})
}

// A refused send is a drop and leaves the queue; every accepted packet
// goes out, whole bytes, stamped with its send instant.
func TestPacerDrainsExactly(t *testing.T) {
	t.Run("SendFailureCountsDrop", func(t *testing.T) {
		clk, p, _, _ := sentBits(10e6, true)
		p.Enqueue(AppendPackets(nil, frameOfBits(0, 8e4)))
		clk.Run(time.Second)
		if p.Drops() == 0 || queuedBits(p) != 0 {
			t.Fatalf("%d drops counted, %v bits left queued", p.Drops(), queuedBits(p))
		}
	})
	t.Run("StampsSentAt", func(t *testing.T) {
		clk, p, bits, last := sentBits(50e6, false)
		clk.Run(100 * time.Millisecond)
		want := 0.0
		for i := 0; i < 10; i++ {
			want += math.Ceil(1e5/8) * 8 // packetizer rounds to whole bytes
			p.Enqueue(AppendPackets(nil, frameOfBits(i, 1e5)))
		}
		clk.Run(time.Second)
		if q := queuedBits(p); q != 0 || *bits != want {
			t.Fatalf("sent %v bits, want %v; %v left queued", *bits, want, q)
		}
		if last.FrameSeq != 9 || last.SentAt <= 100*time.Millisecond {
			t.Fatalf("last packet sent %+v, want frame 9 after the enqueue", *last)
		}
	})
}

func TestPacerBadArgsPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewPacer(simclock.New(), 0, 1e6, nil) },
		func() { NewPacer(simclock.New(), time.Millisecond, 0, nil) },
		func() { NewPacer(simclock.New(), time.Millisecond, math.NaN(), nil) },
		func() { NewPacer(simclock.New(), time.Millisecond, math.Inf(1), nil) },
		func() { NewPacer(simclock.New(), time.Millisecond, math.Inf(-1), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		}()
	}
}

// The backlog scenario: a pacer fed 4-packet frames at 30 fps for 60
// sim-s, at twice its rate, as a sender whose Rv outruns Rrtp.
const (
	backlogFrames  = 30 * 60
	backlogPackets = 4
	backlogRate    = 30 * backlogPackets * MTU * 8 / 2 // bits/s
)

// newBacklogFrames allocates the scenario's frames up front, so that what
// runBacklog allocates is the pacer's.
func newBacklogFrames() []video.EncodedFrame {
	frames := make([]video.EncodedFrame, backlogFrames)
	for i := range frames {
		frames[i] = video.EncodedFrame{Seq: i, Bits: backlogPackets * MTU * 8}
	}
	return frames
}

// runBacklog plays the backlog scenario and returns how many packets it
// left queued.
func runBacklog(frames []video.EncodedFrame, scratch []Packet) int {
	clk := simclock.New()
	sent := 0
	p := NewPacer(clk, DefaultPacerTick, backlogRate, func(Packet) bool { sent++; return true })
	period := time.Second / 30
	for i := range frames {
		clk.Run(time.Duration(i) * period)
		scratch = AppendPackets(scratch, &frames[i])
		p.Enqueue(scratch)
	}
	clk.Run(time.Duration(len(frames)) * period)
	return len(frames)*backlogPackets - sent
}

// TestPacerBacklogAllocBudget bounds what a backlogged pacer allocates: a
// ring that grows only when full, doubling up to 256 slots and by about a
// quarter after, has allocated a small multiple of the most runs it held
// (under three times here). Each queued frame is one run, and the backlog
// only grows here, so that peak is the number of frames queued at the end.
func TestPacerBacklogAllocBudget(t *testing.T) {
	frames := newBacklogFrames()
	scratch := make([]Packet, 0, backlogPackets)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	left := runBacklog(frames, scratch)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	queuedFrames := (left + backlogPackets - 1) / backlogPackets
	// The clock, the pacer and its ticker take about 5 KiB more.
	budget := 4*uint64(queuedFrames)*uint64(unsafe.Sizeof(run{})) + 8<<10
	t.Logf("%d packets (%d frames) queued after 60 s, %d B allocated, budget %d B", left, queuedFrames, got, budget)
	if queuedFrames < backlogFrames/3 {
		t.Fatalf("only %d frames queued: the scenario builds no backlog", queuedFrames)
	}
	if got > budget {
		t.Fatalf("backlogged pacer allocated %d B, budget %d B", got, budget)
	}
}

func BenchmarkPacerBacklog(b *testing.B) {
	frames := newBacklogFrames()
	scratch := make([]Packet, 0, backlogPackets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBacklog(frames, scratch)
	}
}

func BenchmarkPacketize(b *testing.B) {
	f := frameOfBits(0, 1e5)
	for i := 0; i < b.N; i++ {
		AppendPackets(nil, f)
	}
}
