package rtp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"poi360/internal/simclock"
	"poi360/internal/video"
)

// refPacer is Pacer as it was before its video buffer became a ring of
// runs: a head-indexed []Packet, one entry per packet, compacted when an
// append would outgrow it. Only the rate check is the current one (NaN and
// ±Inf refused too). TestPacerMatchesHeadIndexedReference holds the ring to
// it.
type refPacer struct {
	clk     simclock.Scheduler
	tickSec float64
	rate    float64
	send    func(Packet) bool
	queue   []Packet
	head    int
	credit  float64
	drops   int64
	seq     int64
}

func newRefPacer(clk simclock.Scheduler, tick time.Duration, initialRate float64, send func(Packet) bool) *refPacer {
	p := &refPacer{clk: clk, tickSec: tick.Seconds(), rate: initialRate, send: send}
	clk.Ticker(tick, p.onTick)
	return p
}

func (p *refPacer) SetRate(rate float64) {
	if !validRate(rate) {
		return
	}
	p.rate = rate
}

func (p *refPacer) Enqueue(pkts []Packet) {
	if p.head > 0 && len(p.queue)+len(pkts) > cap(p.queue) {
		n := copy(p.queue, p.queue[p.head:])
		p.queue = p.queue[:n]
		p.head = 0
	}
	p.queue = append(p.queue, pkts...)
}

func (p *refPacer) onTick() {
	p.credit += p.rate * p.tickSec
	maxCredit := p.rate*p.tickSec + MTU*8
	if p.credit > maxCredit {
		p.credit = maxCredit
	}
	for p.head < len(p.queue) {
		pkt := p.queue[p.head]
		bits := float64(pkt.Bytes) * 8
		if p.credit < bits {
			break
		}
		p.credit -= bits
		p.queue[p.head] = Packet{}
		p.head++
		pkt.SentAt = p.clk.Now()
		pkt.Seq = p.seq
		p.seq++
		if !p.send(pkt) {
			p.drops++
		}
	}
	if p.head == len(p.queue) {
		p.queue = p.queue[:0]
		p.head = 0
		if p.credit > float64(MTU*8) {
			p.credit = MTU * 8
		}
	}
}

// pacerPair drives a Pacer and a refPacer on one clock with the same tape.
type pacerPair struct {
	clk       *simclock.Clock
	got       *Pacer
	ref       *refPacer
	sentGot   []Packet
	sentWant  []Packet
	checked   int // sentGot[:checked] already equals sentWant[:checked]
	reject    int // a send rejects every reject-th packet (0: none)
	nextFrame int
	scratch   []Packet
}

func newPacerPair(rate float64) *pacerPair {
	pp := &pacerPair{clk: simclock.New()}
	pp.got = NewPacer(pp.clk, DefaultPacerTick, rate, func(pkt Packet) bool {
		pp.sentGot = append(pp.sentGot, pkt)
		return pp.accept(len(pp.sentGot))
	})
	pp.ref = newRefPacer(pp.clk, DefaultPacerTick, rate, func(pkt Packet) bool {
		pp.sentWant = append(pp.sentWant, pkt)
		return pp.accept(len(pp.sentWant))
	})
	return pp
}

func (pp *pacerPair) accept(n int) bool { return pp.reject == 0 || n%pp.reject != 0 }

func (pp *pacerPair) enqueue(pkts []Packet) {
	pp.got.Enqueue(pkts)
	pp.ref.Enqueue(pkts)
}

func (pp *pacerPair) setRate(rate float64) {
	pp.got.SetRate(rate)
	pp.ref.SetRate(rate)
}

// frame enqueues an AppendPackets frame of the given size in bytes.
func (pp *pacerPair) frame(bytes int) {
	f := &video.EncodedFrame{Seq: pp.nextFrame, Bits: float64(8 * bytes)}
	pp.nextFrame++
	pp.scratch = AppendPackets(pp.scratch, f)
	pp.enqueue(pp.scratch)
}

// irregular enqueues one of the hand-built batches AppendPackets never
// makes, each a place where a run must end.
func (pp *pacerPair) irregular(kind int) {
	f := &video.EncodedFrame{Seq: pp.nextFrame}
	g := &video.EncodedFrame{Seq: pp.nextFrame}
	seq := pp.nextFrame
	pp.nextFrame++
	p := func(fr *video.EncodedFrame, index, count, bytes int) Packet {
		return Packet{FrameSeq: seq, Index: index, Count: count, Bytes: bytes, Frame: fr}
	}
	var batch []Packet
	switch kind {
	case 0: // a skipped Index
		batch = []Packet{p(f, 0, 5, MTU), p(f, 1, 5, MTU), p(f, 3, 5, MTU), p(f, 4, 5, 7)}
	case 1: // a repeated Index
		batch = []Packet{p(f, 0, 4, MTU), p(f, 1, 4, MTU), p(f, 1, 4, MTU), p(f, 2, 4, 300)}
	case 2: // one FrameSeq, two Frame pointers
		batch = []Packet{p(f, 0, 4, MTU), p(f, 1, 4, MTU), p(g, 2, 4, MTU), p(g, 3, 4, 90)}
	case 3: // a nil Frame
		batch = []Packet{p(nil, 0, 3, MTU), p(nil, 1, 3, MTU), p(nil, 2, 3, 11)}
	case 4: // a full-size packet after a short one
		batch = []Packet{p(f, 0, 4, MTU), p(f, 1, 4, 500), p(f, 2, 4, MTU), p(f, 3, 4, MTU)}
	case 5: // Count changes inside a frame
		batch = []Packet{p(f, 0, 3, MTU), p(f, 1, 4, MTU), p(f, 2, 4, 40)}
	case 6: // zero-byte packets
		batch = []Packet{p(f, 0, 3, 0), p(f, 1, 3, 0), p(f, 2, 3, 0)}
	case 7: // the frame split over two batches: the second continues the run
		pp.enqueue([]Packet{p(f, 0, 4, MTU), p(f, 1, 4, MTU)})
		batch = []Packet{p(f, 2, 4, MTU), p(f, 3, 4, 1)}
	}
	pp.enqueue(batch)
}

func (pp *pacerPair) advance(d time.Duration) { pp.clk.Run(pp.clk.Now() + d) }

func (pp *pacerPair) check(t *testing.T, where string) {
	t.Helper()
	if len(pp.sentGot) != len(pp.sentWant) {
		t.Fatalf("%s: sent %d packets, reference %d", where, len(pp.sentGot), len(pp.sentWant))
	}
	for i := pp.checked; i < len(pp.sentGot); i++ {
		if pp.sentGot[i] != pp.sentWant[i] {
			t.Fatalf("%s: packet %d = %+v, reference %+v", where, i, pp.sentGot[i], pp.sentWant[i])
		}
	}
	pp.checked = len(pp.sentGot)
	if pp.got.Drops() != pp.ref.drops {
		t.Fatalf("%s: drops %d, reference %d", where, pp.got.Drops(), pp.ref.drops)
	}
	if pp.got.credit != pp.ref.credit {
		t.Fatalf("%s: credit %v, reference %v", where, pp.got.credit, pp.ref.credit)
	}
	var want float64
	for _, pkt := range pp.ref.queue[pp.ref.head:] {
		want += float64(pkt.Bytes) * 8
	}
	if got := queuedBits(pp.got); got != want {
		t.Fatalf("%s: %v bits queued, reference %v", where, got, want)
	}
}

func TestPacerMatchesHeadIndexedReference(t *testing.T) {
	rates := []float64{0.3e6, 1e6, 2.5e6, 8e6, 30e6}
	refused := []float64{0, -1e6, math.NaN(), math.Inf(1), math.Inf(-1)}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pp := newPacerPair(rates[rng.Intn(len(rates))])
			pp.reject = []int{0, 0, 3, 7}[seed%4]
			for step := 0; step < 4000; step++ {
				switch op := rng.Intn(100); {
				case op < 45: // a frame of 1–12 packets, often sub-MTU
					var bytes int
					switch rng.Intn(4) {
					case 0:
						bytes = rng.Intn(MTU) // 0 packs as 1 byte
					case 1:
						bytes = MTU * (1 + rng.Intn(12))
					default:
						bytes = 1 + rng.Intn(12*MTU)
					}
					pp.frame(bytes)
				case op < 55:
					pp.irregular(rng.Intn(8))
				case op < 62:
					pp.setRate(rates[rng.Intn(len(rates))] * (0.5 + rng.Float64()))
				case op < 65:
					pp.setRate(refused[rng.Intn(len(refused))])
				case op < 67: // a long backlog: a burst of frames at a low rate
					pp.setRate(0.2e6)
					for i := 0; i < 200+rng.Intn(600); i++ {
						pp.frame(1 + rng.Intn(6*MTU))
					}
				case op < 69: // a full drain, then the rate it had
					rate := pp.got.Rate()
					pp.setRate(1e9)
					pp.advance(time.Second)
					if pp.got.runs.Len() != 0 || len(pp.ref.queue) != 0 {
						t.Fatalf("step %d: not drained: %d runs, reference %d packets", step, pp.got.runs.Len(), len(pp.ref.queue))
					}
					pp.setRate(rate)
				default:
					pp.advance(time.Duration(rng.Intn(60)) * time.Millisecond)
				}
				pp.check(t, fmt.Sprint("step ", step))
			}
			pp.setRate(1e9)
			pp.advance(10 * time.Second)
			pp.check(t, "final drain")
			if len(pp.sentGot) < 10000 {
				t.Fatalf("only %d packets sent", len(pp.sentGot))
			}
		})
	}
}

// TestPacerRunSizeLimit sends packets whose size does not fit a run's
// int32 uniform size: each must go out at its own size.
func TestPacerRunSizeLimit(t *testing.T) {
	pp := newPacerPair(1e13)
	f := &video.EncodedFrame{}
	big := 1<<32 + 100
	pp.enqueue([]Packet{
		{Index: 0, Count: 4, Bytes: big, Frame: f},
		{Index: 1, Count: 4, Bytes: big, Frame: f},
		{Index: 2, Count: 4, Bytes: MTU, Frame: f},
		{Index: 3, Count: 4, Bytes: 9, Frame: f},
	})
	pp.advance(time.Second)
	pp.check(t, "drained")
	if len(pp.sentGot) != 4 || pp.sentGot[1].Bytes != big {
		t.Fatalf("sent %+v", pp.sentGot)
	}
}
