// The receive-side jitter buffer: a sequence-ordered hold stage between
// the socket and the reassembler that absorbs UDP reordering. The policy
// is time-based (DESIGN.md §16): an in-order packet is released the moment
// it arrives — the common path adds zero latency, and when nothing is held
// it touches neither the heap, the membership map nor a timer — while an
// out-of-order packet waits up to Hold for the gap before it to fill. When
// the hold expires with the gap still open, the missing sequences are
// declared skipped (the sequence-gap tracker) and delivery resumes, so one
// lost datagram stalls the pipeline for at most Hold.

package realnet

import (
	"time"

	"poi360/internal/obs"
	"poi360/internal/rtp"
	"poi360/internal/simclock"
)

// DefaultHold is the jitter-buffer hold: how long an out-of-order packet
// waits for the sequences before it. Sized for same-continent reorder
// depth; raise it on long or heavily multipathed routes.
const DefaultHold = 30 * time.Millisecond

// jbEntry is one buffered packet.
type jbEntry struct {
	h       rtp.WireHeader
	arrived time.Duration // receipt instant (receiver clock)
	due     time.Duration // forced-release instant: arrived + hold
}

// JitterBuffer reorders parsed media packets by transport sequence. It is
// scheduler-driven — deterministic on the simulated clock, live on Wall —
// and must only be touched from the scheduler goroutine. The header
// deliver receives is valid only during the call.
type JitterBuffer struct {
	clk     simclock.Scheduler
	hold    time.Duration
	deliver func(h *rtp.WireHeader, arrived time.Duration)
	code    simclock.Code

	started bool
	next    int64 // next sequence owed to the consumer

	// heap is a min-heap on sequence number; buffered tracks membership
	// for duplicate detection while a sequence sits in the buffer.
	heap     []jbEntry
	buffered map[int64]struct{}
	out      jbEntry // the held entry being delivered, off the heap

	late    int64 // arrived below next: duplicate or hopeless straggler
	dups    int64 // duplicate of a sequence still buffered
	skipped int64 // sequences declared lost by an expired hold
	depth   int   // high-water buffered count

	probe *obs.Probe // NetJitter emissions (nil = disabled)
}

// SetProbe installs the buffer's telemetry probe (nil disables): every
// late arrival, duplicate and hold-expiry skip emits a net.jitter event.
func (jb *JitterBuffer) SetProbe(p *obs.Probe) { jb.probe = p }

// NewJitterBuffer creates a buffer delivering released packets, in
// sequence order, to deliver on the scheduler goroutine. hold <= 0 uses
// DefaultHold.
func NewJitterBuffer(clk simclock.Scheduler, hold time.Duration, deliver func(*rtp.WireHeader, time.Duration)) *JitterBuffer {
	if hold <= 0 {
		hold = DefaultHold
	}
	jb := &JitterBuffer{clk: clk, hold: hold, deliver: deliver, buffered: map[int64]struct{}{}}
	jb.code = clk.NewCode(func(any) { jb.drain() })
	return jb
}

// Push ingests one parsed packet and reports whether the buffer accepted
// it: false for a late arrival or a duplicate, which is dropped and counted.
// *h is read during the call only.
func (jb *JitterBuffer) Push(h *rtp.WireHeader) bool {
	if jb.started && h.Seq < jb.next {
		jb.late++
		jb.probe.Emit(jb.clk.Now(), obs.NetJitter, 1, 0, 0, 0)
		return false
	}
	if jb.started && h.Seq == jb.next && len(jb.heap) == 0 {
		// The owed sequence arriving with nothing held: pushing it would
		// pop it straight back and arm no timer, so release it directly.
		// With anything held it must go through drain — its successors may
		// be waiting behind it. (The stream's first packet takes the heap
		// path below, which is what puts MaxDepth at 1.)
		jb.next++
		jb.deliver(h, jb.clk.Now())
		return true
	}
	if _, dup := jb.buffered[h.Seq]; dup {
		jb.dups++
		jb.probe.Emit(jb.clk.Now(), obs.NetJitter, 0, 1, 0, 0)
		return false
	}
	if !jb.started {
		// Lock the stream to the first arrival: if it was itself reordered,
		// its predecessors become late — acceptable once at startup.
		jb.started = true
		jb.next = h.Seq
	}
	now := jb.clk.Now()
	jb.push(jbEntry{h: *h, arrived: now, due: now + jb.hold})
	jb.buffered[h.Seq] = struct{}{}
	if len(jb.heap) > jb.depth {
		jb.depth = len(jb.heap)
	}
	jb.drain()
	if len(jb.heap) > 0 {
		// Re-arm the forced release for the head. Heads only get older, so
		// at worst a stale timer fires into an already-drained buffer.
		jb.clk.ScheduleCode(jb.heap[0].due, jb.code, nil)
	}
	return true
}

// drain releases every packet that is either in order or past its hold,
// advancing the sequence floor over expired gaps.
func (jb *JitterBuffer) drain() {
	now := jb.clk.Now()
	for len(jb.heap) > 0 {
		head := &jb.heap[0]
		if head.h.Seq != jb.next && head.due > now {
			return // out of order and still inside its hold
		}
		if head.h.Seq > jb.next {
			jb.skipped += head.h.Seq - jb.next
			jb.probe.Emit(now, obs.NetJitter, 0, 0, float64(head.h.Seq-jb.next), 0)
		}
		jb.next = head.h.Seq + 1
		delete(jb.buffered, head.h.Seq)
		jb.out = *head
		jb.pop()
		jb.deliver(&jb.out.h, jb.out.arrived)
	}
}

// Late reports packets dropped because their sequence was already released.
func (jb *JitterBuffer) Late() int64 { return jb.late }

// Duplicates reports packets dropped as duplicates of a buffered sequence.
func (jb *JitterBuffer) Duplicates() int64 { return jb.dups }

// Skipped reports sequences abandoned by an expired hold (the gap tracker).
func (jb *JitterBuffer) Skipped() int64 { return jb.skipped }

// MaxDepth reports the high-water buffered count.
func (jb *JitterBuffer) MaxDepth() int { return jb.depth }

// push / pop maintain the sequence-ordered min-heap.
func (jb *JitterBuffer) push(e jbEntry) {
	jb.heap = append(jb.heap, e)
	for j := len(jb.heap) - 1; j > 0; {
		p := (j - 1) / 2
		if jb.heap[p].h.Seq <= jb.heap[j].h.Seq {
			break
		}
		jb.heap[p], jb.heap[j] = jb.heap[j], jb.heap[p]
		j = p
	}
}

func (jb *JitterBuffer) pop() {
	n := len(jb.heap) - 1
	jb.heap[0] = jb.heap[n]
	jb.heap[n] = jbEntry{}
	jb.heap = jb.heap[:n]
	for j := 0; ; {
		l, r := 2*j+1, 2*j+2
		s := j
		if l < n && jb.heap[l].h.Seq < jb.heap[s].h.Seq {
			s = l
		}
		if r < n && jb.heap[r].h.Seq < jb.heap[s].h.Seq {
			s = r
		}
		if s == j {
			break
		}
		jb.heap[j], jb.heap[s] = jb.heap[s], jb.heap[j]
		j = s
	}
}
