package realnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"poi360/internal/obs"
	"poi360/internal/rtp"
	"poi360/internal/simclock"
)

// refJitter is the jitter buffer as it was before the in-order bypass:
// every accepted packet is inserted into the held set, then drained, and a
// forced-release timer is armed whenever something stays held. It is the
// oracle TestJitterBypassMatchesHeapPath holds the production buffer to.
type refJitter struct {
	clk     *simclock.Clock
	hold    time.Duration
	deliver func(*rtp.WireHeader, time.Duration)
	code    simclock.Code
	probe   *obs.Probe

	started bool
	next    int64
	held    []jbEntry // sorted by sequence

	late, dups, skipped int64
	depth               int
}

func newRefJitter(clk *simclock.Clock, hold time.Duration, deliver func(*rtp.WireHeader, time.Duration)) *refJitter {
	r := &refJitter{clk: clk, hold: hold, deliver: deliver}
	r.code = clk.NewCode(func(any) { r.drain() })
	return r
}

func (r *refJitter) Push(h *rtp.WireHeader) bool {
	now := r.clk.Now()
	if r.started && h.Seq < r.next {
		r.late++
		r.probe.Emit(now, obs.NetJitter, 1, 0, 0, 0)
		return false
	}
	i := sort.Search(len(r.held), func(i int) bool { return r.held[i].h.Seq >= h.Seq })
	if i < len(r.held) && r.held[i].h.Seq == h.Seq {
		r.dups++
		r.probe.Emit(now, obs.NetJitter, 0, 1, 0, 0)
		return false
	}
	if !r.started {
		r.started = true
		r.next = h.Seq
	}
	r.held = append(r.held, jbEntry{})
	copy(r.held[i+1:], r.held[i:])
	r.held[i] = jbEntry{h: *h, arrived: now, due: now + r.hold}
	r.depth = max(r.depth, len(r.held))
	r.drain()
	if len(r.held) > 0 {
		r.clk.ScheduleCode(r.held[0].due, r.code, nil)
	}
	return true
}

func (r *refJitter) drain() {
	now := r.clk.Now()
	for len(r.held) > 0 {
		head := r.held[0]
		if head.h.Seq != r.next && head.due > now {
			return
		}
		if head.h.Seq > r.next {
			r.skipped += head.h.Seq - r.next
			r.probe.Emit(now, obs.NetJitter, 0, 0, float64(head.h.Seq-r.next), 0)
		}
		r.next = head.h.Seq + 1
		r.held = r.held[1:]
		r.deliver(&head.h, head.arrived)
	}
}

// hdr builds a minimal wire header with the given transport sequence.
func hdr(seq int64) *rtp.WireHeader {
	return &rtp.WireHeader{Seq: seq, Count: 1, Marker: true}
}

// arrival is one tape entry: sequence seq reaches the buffer at instant at.
type arrival struct {
	at  time.Duration
	seq int64
}

// release is one delivery as the consumer saw it.
type release struct {
	seq               int64
	arrived, released time.Duration
}

// jbSide is one buffer under test with everything observable about it.
type jbSide struct {
	clk      *simclock.Clock
	bus      *obs.Bus
	out      []release
	accepted []bool
	push     func(*rtp.WireHeader) bool
	state    func() [5]int64 // buffered, late, dups, skipped, max depth
}

func newJBSide(hold time.Duration, reference bool) *jbSide {
	s := &jbSide{clk: simclock.New(), bus: obs.NewBus()}
	deliver := func(h *rtp.WireHeader, arrived time.Duration) {
		s.out = append(s.out, release{h.Seq, arrived, s.clk.Now()})
	}
	if reference {
		r := newRefJitter(s.clk, hold, deliver)
		r.probe = s.bus.Probe(0)
		s.push = r.Push
		s.state = func() [5]int64 {
			return [5]int64{int64(len(r.held)), r.late, r.dups, r.skipped, int64(r.depth)}
		}
		return s
	}
	jb := NewJitterBuffer(s.clk, hold, deliver)
	jb.SetProbe(s.bus.Probe(0))
	s.push = jb.Push
	s.state = func() [5]int64 {
		return [5]int64{int64(len(jb.heap)), jb.Late(), jb.Duplicates(), jb.Skipped(), int64(jb.MaxDepth())}
	}
	return s
}

// play schedules the whole tape up front, so an arrival precedes a hold
// timer due at the same instant.
func (s *jbSide) play(tape []arrival) {
	for _, a := range tape {
		seq := a.seq
		s.clk.Schedule(a.at, func() { s.accepted = append(s.accepted, s.push(hdr(seq))) })
	}
}

// randomJitterTape draws a tape mixing in-order runs, reordering inside and
// beyond the hold, duplicates of held and of released sequences, gaps that
// never fill, and (half the time) a mid-stream start.
func randomJitterTape(rng *rand.Rand, hold time.Duration) []arrival {
	var tape []arrival
	var now time.Duration
	next := int64(0)
	if rng.Intn(2) == 1 {
		next = 1000 + rng.Int63n(1000)
	}
	first := next
	var missing []int64 // skipped over, may still turn up
	for len(tape) < 40+rng.Intn(60) {
		switch d := rng.Intn(20); {
		case d == 0:
			now += hold + time.Duration(rng.Intn(3))*time.Millisecond // idle past a hold
		case d < 4:
			now += hold / 2
		case d < 12:
			now += time.Duration(rng.Intn(3)) * time.Millisecond // incl. same-instant bursts
		default:
			now += 500 * time.Microsecond
		}
		switch d := rng.Intn(20); {
		case d < 11 || next == first: // in order
			tape = append(tape, arrival{now, next})
			next++
		case d < 14: // jump ahead, leaving a gap
			for n := 1 + rng.Intn(4); n > 0; n-- {
				missing = append(missing, next)
				next++
			}
			tape = append(tape, arrival{now, next})
			next++
		case d < 17 && len(missing) > 0: // a straggler: in time, late, or never
			i := rng.Intn(len(missing))
			tape = append(tape, arrival{now, missing[i]})
			missing = append(missing[:i], missing[i+1:]...)
		default: // duplicate of something recent, held or already released
			tape = append(tape, arrival{now, tape[len(tape)-1-rng.Intn(min(len(tape), 6))].seq})
		}
	}
	return tape
}

// TestJitterBypassMatchesHeapPath holds the jitter buffer to refJitter on
// six hand-written tapes, each a subtest with the releases (sequence,
// arrival, release instant) and late/duplicate/skipped counts it must
// produce, and on 240 random tapes: after every arrival the same state, pending timers
// and deliveries, and at the end the same Push verdicts and net.jitter
// events.
func TestJitterBypassMatchesHeapPath(t *testing.T) {
	type tc struct {
		name string
		hold time.Duration
		tape []arrival
		want []release // nil for a random tape
		lds  [3]int64  // late, duplicates, skipped
	}
	ms := time.Millisecond
	cases := []tc{
		{"in-order", 30 * ms, []arrival{{0, 0}, {1 * ms, 1}, {2 * ms, 2}, {3 * ms, 3}, {4 * ms, 4}},
			[]release{{0, 0, 0}, {1, ms, ms}, {2, 2 * ms, 2 * ms}, {3, 3 * ms, 3 * ms}, {4, 4 * ms, 4 * ms}}, [3]int64{}},
		// Packet 2 waits from 1 ms until packet 1 fills the gap at 5 ms.
		{"reorder-within-hold", 30 * ms, []arrival{{0, 0}, {1 * ms, 2}, {5 * ms, 1}},
			[]release{{0, 0, 0}, {1, 5 * ms, 5 * ms}, {2, ms, 5 * ms}}, [3]int64{}},
		// 1 and 2 never arrive: 3 waits the full hold.
		{"gap-expires", 30 * ms, []arrival{{0, 0}, {2 * ms, 3}}, []release{{0, 0, 0}, {3, 2 * ms, 32 * ms}}, [3]int64{0, 0, 2}},
		// A duplicate of a buffered sequence, then of a released one.
		{"duplicate-and-late", 30 * ms, []arrival{{0, 0}, {1 * ms, 2}, {2 * ms, 2}, {3 * ms, 1}, {10 * ms, 0}},
			[]release{{0, 0, 0}, {1, 3 * ms, 3 * ms}, {2, ms, 3 * ms}}, [3]int64{1, 1, 0}},
		// The first arrival locks the stream: 9 goes at once, 8..0 are late.
		{"deep-reorder", 50 * ms, []arrival{{0, 9}, {1 * ms, 8}, {2 * ms, 7}, {3 * ms, 6}, {4 * ms, 5},
			{5 * ms, 4}, {6 * ms, 3}, {7 * ms, 2}, {8 * ms, 1}, {9 * ms, 0}}, []release{{9, 0, 0}}, [3]int64{9, 0, 0}},
		// Joining an in-progress stream: the first sequence is the floor.
		{"mid-stream", 30 * ms, []arrival{{0, 100}, {1 * ms, 101}}, []release{{100, 0, 0}, {101, ms, ms}}, [3]int64{}},
	}
	for seed := int64(1); seed <= 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hold := []time.Duration{5 * ms, 10 * ms, 30 * ms}[rng.Intn(3)]
		cases = append(cases, tc{name: fmt.Sprintf("random-%d", seed), hold: hold, tape: randomJitterTape(rng, hold)})
	}

	var bypassed, held int
	for _, c := range cases {
		play := func(t *testing.T) {
			got, want := newJBSide(c.hold, false), newJBSide(c.hold, true)
			got.play(c.tape)
			want.play(c.tape)
			end := c.tape[len(c.tape)-1].at + 2*c.hold
			for i := 0; i <= len(c.tape); i++ {
				at := end
				if i < len(c.tape) {
					at = c.tape[i].at
				}
				got.clk.Run(at)
				want.clk.Run(at)
				if g, w := got.state(), want.state(); g != w {
					t.Fatalf("%s @%v: buffered/late/dups/skipped/depth %v, reference %v", c.name, at, g, w)
				}
				if g, w := got.clk.Pending(), want.clk.Pending(); g != w {
					t.Fatalf("%s @%v: %d events pending, reference %d (a timer too many or too few)", c.name, at, g, w)
				}
				if !reflect.DeepEqual(got.out, want.out) {
					t.Fatalf("%s @%v: deliveries (seq, arrived, released)\n got %v\nwant %v", c.name, at, got.out, want.out)
				}
			}
			if !reflect.DeepEqual(got.accepted, want.accepted) {
				t.Fatalf("%s: Push verdicts %v, reference %v", c.name, got.accepted, want.accepted)
			}
			if !reflect.DeepEqual(got.bus.Events(), want.bus.Events()) {
				t.Fatalf("%s: net.jitter events\n got %v\nwant %v", c.name, got.bus.Events(), want.bus.Events())
			}
			if got.clk.Pending() != 0 {
				t.Fatalf("%s: %d events left after the last hold", c.name, got.clk.Pending())
			}
			if st := got.state(); c.want != nil && (!reflect.DeepEqual(got.out, c.want) || [3]int64(st[1:4]) != c.lds) {
				t.Fatalf("%s: released %v with late/dups/skipped %v, want %v and %v", c.name, got.out, st[1:4], c.want, c.lds)
			}
			for _, r := range want.out {
				if r.released == r.arrived {
					bypassed++
				} else {
					held++
				}
			}
		}
		if c.want == nil {
			play(t)
		} else {
			t.Run(c.name, play)
		}
	}
	// The tapes must exercise both sides of the bypass condition.
	if bypassed < 1000 || held < 1000 {
		t.Fatalf("tapes released %d packets on arrival and %d after a wait; want plenty of both", bypassed, held)
	}
}
