// Package rtp models the transport layer of Fig. 9: encoded 360° frames are
// packetized into MTU-sized RTP packets, buffered in the application-layer
// video buffer, and released by a pacer at the RTP sending rate Rrtp — the
// knob FBCC turns to steer the firmware-buffer level (Eq. 7). The receiver
// side reassembles frames and reports completion times.
package rtp

import (
	"fmt"
	"math"
	"time"

	"poi360/internal/fifo"
	"poi360/internal/simclock"
	"poi360/internal/video"
)

// MTU is the media packet payload size in bytes.
const MTU = 1200

// Packet is one RTP packet of a video frame.
type Packet struct {
	FrameSeq int
	Index    int
	Count    int
	Bytes    int
	// Frame carries the encoded-frame metadata (compression matrix, sender
	// ROI, capture time) the prototype embeds in the canvas (§5).
	Frame *video.EncodedFrame
	// SentAt is stamped by the pacer when the packet leaves the app layer.
	SentAt time.Duration
	// Seq is the transport-wide sequence number stamped by the pacer,
	// used by the receiver's loss estimator.
	Seq int64
}

// AppendPackets splits an encoded frame into MTU-sized packets (every
// frame yields at least one), appended to dst[:0]; the (possibly grown)
// slice is returned. The pacer's Enqueue copies packets into its own queue,
// so a sender can reuse one scratch slice per frame instead of allocating
// a packet list every capture tick.
func AppendPackets(dst []Packet, f *video.EncodedFrame) []Packet {
	bytes := int(f.Bits / 8)
	if bytes < 1 {
		bytes = 1
	}
	count := (bytes + MTU - 1) / MTU
	pkts := dst[:0]
	for i := 0; i < count; i++ {
		sz := MTU
		if i == count-1 {
			sz = bytes - MTU*(count-1)
		}
		pkts = append(pkts, Packet{FrameSeq: f.Seq, Index: i, Count: count, Bytes: sz, Frame: f})
	}
	return pkts
}

// Pacer drains the application-layer video buffer into the network at a
// controlled rate. Its tick is fine-grained (5 ms) so the firmware buffer
// sees a smooth arrival process.
type Pacer struct {
	clk     simclock.Scheduler
	tick    time.Duration
	tickSec float64 // tick.Seconds(), hoisted off the per-tick path
	rate    float64 // bits/s
	send    func(Packet) bool
	// The video buffer is a FIFO of runs. A frame's packets form one run,
	// so a backlog costs one entry per frame, not per packet.
	runs   fifo.Queue[run]
	credit float64 // bits
	drops  int64
	seq    int64
}

// run is n consecutive queued packets of one frame: the same Frame,
// FrameSeq and Count, Index rising by one from index, every packet but the
// last size bytes long and the last one last bytes long. The pacer stamps
// SentAt and Seq at send time, so a run does not store them.
type run struct {
	frame    *video.EncodedFrame
	frameSeq int
	index    int
	count    int
	last     int
	n        int32
	size     int32
}

// absorbs reports whether pkt continues r as its next packet. The size of
// every packet but the last is kept in an int32, so r's current last
// packet must fit one before another packet can follow it.
func (r *run) absorbs(pkt *Packet) bool {
	return pkt.Frame == r.frame && pkt.FrameSeq == r.frameSeq && pkt.Count == r.count &&
		pkt.Index == r.index+int(r.n) && int(int32(r.last)) == r.last &&
		(r.n == 1 || int32(r.last) == r.size)
}

// DefaultPacerTick is the pacing granularity.
const DefaultPacerTick = 5 * time.Millisecond

// NewPacer creates and starts a pacer. send pushes one packet into the
// transport and reports false if the access buffer rejected it.
func NewPacer(clk simclock.Scheduler, tick time.Duration, initialRate float64, send func(Packet) bool) *Pacer {
	if tick <= 0 {
		panic("rtp: pacer tick must be positive")
	}
	if !validRate(initialRate) {
		panic(fmt.Sprintf("rtp: initial rate %g must be positive and finite", initialRate))
	}
	p := &Pacer{clk: clk, tick: tick, tickSec: tick.Seconds(), rate: initialRate, send: send}
	clk.Ticker(tick, p.onTick)
	return p
}

// validRate reports whether rate is a usable pacing rate. A NaN or +Inf
// rate would release the whole queue on every tick, and a NaN credit is
// never reset by the drain cap, so it outlives the rate that caused it.
func validRate(rate float64) bool { return rate > 0 && !math.IsInf(rate, 1) }

// SetRate updates the pacing rate Rrtp. A rate that is not positive and
// finite is ignored.
func (p *Pacer) SetRate(rate float64) {
	if !validRate(rate) {
		return
	}
	p.rate = rate
}

// Rate returns the current pacing rate.
func (p *Pacer) Rate() float64 { return p.rate }

// Enqueue appends a frame's packets to the video buffer. Packets are
// copied in, so the caller may reuse pkts immediately.
func (p *Pacer) Enqueue(pkts []Packet) {
	for i := range pkts {
		pkt := &pkts[i]
		if p.runs.Len() > 0 && p.runs.Back().absorbs(pkt) {
			r := p.runs.Back()
			r.size = int32(r.last)
			r.last = pkt.Bytes
			r.n++
			continue
		}
		p.runs.Push(run{
			frame: pkt.Frame, frameSeq: pkt.FrameSeq, index: pkt.Index, count: pkt.Count,
			last: pkt.Bytes, n: 1,
		})
	}
}

// Drops reports packets rejected by the transport at send time.
func (p *Pacer) Drops() int64 { return p.drops }

func (p *Pacer) onTick() {
	p.credit += p.rate * p.tickSec
	// Cap idle credit at one tick plus a packet so bursts stay bounded.
	maxCredit := p.rate*p.tickSec + MTU*8
	if p.credit > maxCredit {
		p.credit = maxCredit
	}
	for p.runs.Len() > 0 {
		r := p.runs.Front()
		bytes := r.last
		if r.n > 1 {
			bytes = int(r.size)
		}
		bits := float64(bytes) * 8
		if p.credit < bits {
			break
		}
		p.credit -= bits
		pkt := Packet{FrameSeq: r.frameSeq, Index: r.index, Count: r.count, Bytes: bytes, Frame: r.frame}
		if r.n--; r.n > 0 {
			r.index++
		} else {
			p.runs.Pop()
		}
		pkt.SentAt = p.clk.Now()
		pkt.Seq = p.seq
		p.seq++
		if !p.send(pkt) {
			p.drops++
		}
	}
	if p.runs.Len() == 0 && p.credit > float64(MTU*8) {
		p.credit = MTU * 8
	}
}

// CompletedFrame is a fully reassembled frame at the receiver.
type CompletedFrame struct {
	Frame   *video.EncodedFrame
	Arrived time.Duration // arrival of the last packet
	Sent    time.Duration // pacer departure of the first packet
	Bits    float64
}

// maxPartials caps the frames a Reassembler holds partly received: an
// honest stream holds one, a forged one could open a frame (and a receipt
// bitmap of up to 65 535 bits) per datagram.
const maxPartials = 32

// Reassembler collects packets into frames and invokes the completion
// callback once per frame. Frames whose packets never all arrive (modem
// drops) are abandoned when a newer frame completes, or when a packet
// would open a partial frame past maxPartials, and reported as lost.
//
// The reassembler is safe against the arrival patterns of a real network
// path, not just the in-order in-memory simulation: duplicated packets are
// detected by a per-frame receipt bitmap (a frame can never complete early
// or double-complete), and stragglers of frames already completed or
// abandoned are dropped at the door instead of seeding a ghost partial
// that would later be double-counted as a lost frame.
type Reassembler struct {
	clk      simclock.Scheduler
	onFrame  func(CompletedFrame)
	partial  map[int]*partialFrame
	free     []*partialFrame // recycled partials; one live per in-flight frame
	lost     int64
	complete int64
	dups     int64
	late     int64
	// floor is the highest frame sequence already completed or abandoned;
	// packets at or below it are late arrivals with no frame to join.
	floor int
}

type partialFrame struct {
	got       int
	count     int
	frame     *video.EncodedFrame
	firstSent time.Duration
	bits      float64
	// seen is the per-index receipt bitmap; its backing array is recycled
	// with the partial.
	seen []uint64
}

// reset re-arms a (possibly recycled) partial for pkt's frame, reusing the
// bitmap's backing array.
func (pf *partialFrame) reset(pkt Packet) {
	words := (pkt.Count + 63) / 64
	seen := pf.seen
	if cap(seen) < words {
		seen = make([]uint64, words)
	} else {
		seen = seen[:words]
		clear(seen)
	}
	*pf = partialFrame{count: pkt.Count, frame: pkt.Frame, firstSent: pkt.SentAt, seen: seen}
}

// mark records receipt of packet index idx and reports whether it had
// already been received.
func (pf *partialFrame) mark(idx int) (dup bool) {
	w, b := idx/64, uint(idx%64)
	if pf.seen[w]&(1<<b) != 0 {
		return true
	}
	pf.seen[w] |= 1 << b
	return false
}

// NewReassembler creates a receiver-side frame assembler.
func NewReassembler(clk simclock.Scheduler, onFrame func(CompletedFrame)) *Reassembler {
	return &Reassembler{clk: clk, onFrame: onFrame, partial: map[int]*partialFrame{}, floor: -1}
}

// OnPacket ingests one arriving packet.
func (r *Reassembler) OnPacket(pkt Packet) {
	if pkt.FrameSeq <= r.floor {
		// The frame already completed or was abandoned: a duplicate, or a
		// straggler reordered past its frame's lifetime. Seeding a fresh
		// partial here would count the frame lost a second time when the
		// ghost is later abandoned.
		r.late++
		return
	}
	pf := r.partial[pkt.FrameSeq]
	if pf == nil {
		if len(r.partial) == maxPartials {
			// One frame more than an honest stream ever holds: abandon
			// the lowest in flight, this one counted.
			low := pkt.FrameSeq
			for seq := range r.partial {
				low = min(low, seq)
			}
			r.abandonThrough(low)
			if low == pkt.FrameSeq {
				r.lost++
				return
			}
		}
		if n := len(r.free); n > 0 {
			pf = r.free[n-1]
			r.free = r.free[:n-1]
		} else {
			pf = &partialFrame{}
		}
		pf.reset(pkt)
		r.partial[pkt.FrameSeq] = pf
	}
	if pkt.Index < 0 || pkt.Index >= pf.count || pf.mark(pkt.Index) {
		// Already received (a UDP duplicate), or an index inconsistent
		// with the frame's packet count (corrupt header that slipped
		// through): either way there is nothing new to add, and counting
		// it would complete the frame early.
		r.dups++
		return
	}
	pf.got++
	pf.bits += float64(pkt.Bytes) * 8
	if pkt.SentAt < pf.firstSent {
		pf.firstSent = pkt.SentAt
	}
	if pf.got < pf.count {
		return
	}
	delete(r.partial, pkt.FrameSeq)
	// Frames older than this one that are still partial will never
	// complete in FIFO delivery.
	r.abandonThrough(pkt.FrameSeq)
	r.complete++
	done := CompletedFrame{Frame: pf.frame, Arrived: r.clk.Now(), Sent: pf.firstSent, Bits: pf.bits}
	pf.frame = nil
	r.free = append(r.free, pf)
	r.onFrame(done)
}

// abandonThrough counts every partial frame at or below seq lost, recycles
// it, and raises the floor to seq, so stragglers of those frames are late
// rather than reopening them.
func (r *Reassembler) abandonThrough(seq int) {
	for s, pf := range r.partial {
		if s <= seq {
			r.lost++
			delete(r.partial, s)
			pf.frame = nil
			r.free = append(r.free, pf)
		}
	}
	r.floor = seq
}

// Lost reports frames abandoned due to packet loss.
func (r *Reassembler) Lost() int64 { return r.lost }

// Completed reports fully delivered frames.
func (r *Reassembler) Completed() int64 { return r.complete }

// Duplicates reports packets discarded because their frame index had
// already been received (UDP duplication).
func (r *Reassembler) Duplicates() int64 { return r.dups }

// Late reports packets discarded because their frame had already completed
// or been abandoned (UDP reordering past a frame boundary).
func (r *Reassembler) Late() int64 { return r.late }
