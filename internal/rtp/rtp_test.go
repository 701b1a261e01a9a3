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

func TestPacketizeSizes(t *testing.T) {
	f := frameOfBits(0, 8*float64(MTU*2+100))
	pkts := AppendPackets(nil, f)
	if len(pkts) != 3 {
		t.Fatalf("packet count %d, want 3", len(pkts))
	}
	total := 0
	for i, p := range pkts {
		if p.FrameSeq != 0 || p.Index != i || p.Count != 3 || p.Frame != f {
			t.Fatalf("packet %d metadata wrong: %+v", i, p)
		}
		total += p.Bytes
	}
	if total != MTU*2+100 {
		t.Fatalf("total bytes %d", total)
	}
}

func TestPacketizeTinyFrame(t *testing.T) {
	pkts := AppendPackets(nil, frameOfBits(1, 4))
	if len(pkts) != 1 || pkts[0].Bytes != 1 {
		t.Fatalf("tiny frame: %+v", pkts)
	}
}

// Property: packetize always partitions the frame into ≤MTU chunks that sum
// to the frame size.
func TestPropertyPacketize(t *testing.T) {
	f := func(kb uint16) bool {
		bytes := int(kb) + 1
		pkts := AppendPackets(nil, frameOfBits(0, float64(bytes*8)))
		sum := 0
		for _, p := range pkts {
			if p.Bytes <= 0 || p.Bytes > MTU {
				return false
			}
			sum += p.Bytes
		}
		return sum == bytes && pkts[0].Count == len(pkts)
	}
	if err := quick.Check(f, nil); err != nil {
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

func TestPacerRateLimits(t *testing.T) {
	clk := simclock.New()
	var sentBits float64
	p := NewPacer(clk, DefaultPacerTick, 1e6, func(pkt Packet) bool {
		sentBits += float64(pkt.Bytes) * 8
		return true
	})
	// 5 Mbit of queued packets at 1 Mbps → ~1 Mbit sent per second.
	p.Enqueue(AppendPackets(nil, frameOfBits(0, 5e6)))
	clk.Run(time.Second)
	if sentBits < 0.9e6 || sentBits > 1.15e6 {
		t.Fatalf("sent %v bits in 1s at 1Mbps", sentBits)
	}
	if q := queuedBits(p); math.Abs(q-(5e6-sentBits)) > 1 {
		t.Fatalf("queue accounting: %v", q)
	}
}

func TestPacerSetRate(t *testing.T) {
	clk := simclock.New()
	var sentBits float64
	p := NewPacer(clk, DefaultPacerTick, 1e6, func(pkt Packet) bool {
		sentBits += float64(pkt.Bytes) * 8
		return true
	})
	p.Enqueue(AppendPackets(nil, frameOfBits(0, 10e6)))
	clk.Run(time.Second)
	first := sentBits
	p.SetRate(4e6)
	if p.Rate() != 4e6 {
		t.Fatal("SetRate ignored")
	}
	clk.Run(2 * time.Second)
	second := sentBits - first
	if second < 3.5e6 || second > 4.5e6 {
		t.Fatalf("after rate change sent %v bits/s, want ≈4e6", second)
	}
	// Non-positive and non-finite rates are ignored rather than wedging
	// the pacer or releasing its whole queue at once.
	for _, bad := range []float64{0, -1e6, math.NaN(), math.Inf(1), math.Inf(-1)} {
		p.SetRate(bad)
		if p.Rate() != 4e6 {
			t.Fatalf("rate %g should be ignored", bad)
		}
	}
	before := sentBits
	clk.Run(3 * time.Second)
	if got := sentBits - before; got < 3.5e6 || got > 4.5e6 {
		t.Fatalf("after refused rates sent %v bits/s, want ≈4e6", got)
	}
}

func TestPacerSendFailureCountsDrop(t *testing.T) {
	clk := simclock.New()
	p := NewPacer(clk, DefaultPacerTick, 10e6, func(Packet) bool { return false })
	p.Enqueue(AppendPackets(nil, frameOfBits(0, 8e4)))
	clk.Run(time.Second)
	if p.Drops() == 0 {
		t.Fatal("drops not counted")
	}
	if queuedBits(p) != 0 {
		t.Fatal("dropped packets should leave the queue")
	}
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

func TestPacerStampsSentAt(t *testing.T) {
	clk := simclock.New()
	var got Packet
	p := NewPacer(clk, DefaultPacerTick, 10e6, func(pkt Packet) bool {
		got = pkt
		return true
	})
	clk.Run(100 * time.Millisecond)
	p.Enqueue(AppendPackets(nil, frameOfBits(7, 800)))
	clk.Run(200 * time.Millisecond)
	if got.FrameSeq != 7 {
		t.Fatal("packet not sent")
	}
	if got.SentAt <= 100*time.Millisecond {
		t.Fatalf("SentAt = %v, want after enqueue", got.SentAt)
	}
}

func TestReassemblerCompletesFrame(t *testing.T) {
	clk := simclock.New()
	var done []CompletedFrame
	r := NewReassembler(clk, func(cf CompletedFrame) { done = append(done, cf) })
	f := frameOfBits(3, 8*float64(3*MTU))
	pkts := AppendPackets(nil, f)
	for i, p := range pkts {
		p.SentAt = time.Duration(i) * time.Millisecond
		clk.Run(time.Duration(i+1) * 10 * time.Millisecond)
		r.OnPacket(p)
	}
	if len(done) != 1 {
		t.Fatalf("completed %d frames", len(done))
	}
	cf := done[0]
	if cf.Frame != f || cf.Arrived != 30*time.Millisecond || cf.Sent != 0 {
		t.Fatalf("completion: %+v", cf)
	}
	if cf.Bits != 8*float64(3*MTU) {
		t.Fatalf("bits %v", cf.Bits)
	}
	if r.Completed() != 1 || r.Lost() != 0 {
		t.Fatal("counters")
	}
}

func TestReassemblerAbandonsOlderPartials(t *testing.T) {
	clk := simclock.New()
	var done []CompletedFrame
	r := NewReassembler(clk, func(cf CompletedFrame) { done = append(done, cf) })
	// Frame 0: 2 packets, only the first arrives (second dropped).
	f0 := AppendPackets(nil, frameOfBits(0, 8*float64(2*MTU)))
	r.OnPacket(f0[0])
	// Frame 1 completes.
	f1 := AppendPackets(nil, frameOfBits(1, 800))
	r.OnPacket(f1[0])
	if len(done) != 1 || done[0].Frame.Seq != 1 {
		t.Fatalf("done: %+v", done)
	}
	if r.Lost() != 1 {
		t.Fatalf("Lost = %d, want 1", r.Lost())
	}
	// A late packet of frame 0 now recreates a partial that can never
	// complete (got resets), but must not double-complete frame 1.
	r.OnPacket(f0[1])
	if len(done) != 1 {
		t.Fatal("stale packet completed something")
	}
}

func TestPacerDrainsExactly(t *testing.T) {
	clk := simclock.New()
	var bits float64
	p := NewPacer(clk, DefaultPacerTick, 50e6, func(pkt Packet) bool {
		bits += float64(pkt.Bytes) * 8
		return true
	})
	want := 0.0
	for i := 0; i < 10; i++ {
		f := frameOfBits(i, 1e5)
		want += math.Ceil(1e5/8) * 8 // packetizer rounds to whole bytes
		p.Enqueue(AppendPackets(nil, f))
	}
	clk.Run(time.Second)
	if q := queuedBits(p); q != 0 {
		t.Fatalf("queue not drained: %v", q)
	}
	if bits != want {
		t.Fatalf("sent %v bits, want %v", bits, want)
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
