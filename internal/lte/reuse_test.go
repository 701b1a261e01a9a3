package lte

import (
	"math/rand"
	"testing"
	"time"

	"poi360/internal/obs"
	"poi360/internal/seeds"
	"poi360/internal/simclock"
)

// rowState is everything a row carries from one residency to the next
// unless admission resets it: the row's hot state in the cell's SoA (diag
// instant relative to the cell's subframe counter) and its UE's cold state.
type rowState struct {
	buf                          int
	diagAge                      int64
	diagEvery                    int32
	diagTBS, ewma                float64
	pfMetric, pfAchiev, pfServed float64
	credit                       float64
	headServed                   int
	totalServedBits              float64
	dropped, diagStalled         int64
	detached                     bool
	queued                       int
	probe                        *obs.Probe
	listener                     bool
}

func stateOf(c *Cell, u *UE) rowState {
	s, i := &c.soa, u.id
	return rowState{
		buf: s.buf[i], diagAge: c.sfIndex - s.diagLast[i], diagEvery: s.diagEvery[i],
		diagTBS: s.diagTBS[i], ewma: s.ewma[i],
		pfMetric: s.pfMetric[i], pfAchiev: s.pfAchiev[i], pfServed: s.pfServed[i],
		credit: u.credit, headServed: u.headServed, totalServedBits: u.totalServedBits,
		dropped: u.dropped, diagStalled: u.diagStalled, detached: u.detached,
		queued: u.queue.Len(), probe: u.probe, listener: u.onDiag != nil,
	}
}

// TestRowReuseMatchesFreshRow cycles an advanced city cell through 10 000
// detach/admit pairs at a population of at most 4, its UEs fed, probed and
// listened to between the pairs. The cell never holds more than 4 rows, and
// every admitted UE — in a reused row almost always — starts in exactly the
// state of the first row of a fresh cell, on its own generator.
func TestRowReuseMatchesFreshRow(t *testing.T) {
	cfg := CellConfig{Profile: ProfileCampus, AlwaysPF: true, CapacityStride: 10}
	fresh, err := NewCell(simclock.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fresh.AddUE(DefaultUEConfig(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := stateOf(fresh, f)

	cell, err := NewCell(simclock.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	bus := obs.NewBus()
	bus.DisableRetention()
	var live []*UE
	residencies, reused := 0, 0
	admit := func() {
		ucfg := DefaultUEConfig(0)
		ucfg.Src = seeds.NewSource(int64(residencies))
		rows := len(cell.ues)
		u, err := cell.AddUE(ucfg, func(Packet) {})
		if err != nil {
			t.Fatal(err)
		}
		if len(cell.ues) == rows {
			reused++
		}
		if got := stateOf(cell, u); got != want {
			t.Fatalf("residency %d in row %d starts as\n %+v\nwant a fresh row's\n %+v", residencies, u.id, got, want)
		}
		if u.rng != ucfg.Src {
			t.Fatalf("residency %d draws from another stream than its own", residencies)
		}
		u.SetProbe(bus.Probe(int32(residencies)))
		u.SetDiagListener(func(DiagReport) {})
		residencies++
		live = append(live, u)
	}
	now := time.Duration(0)
	run := func(subframes int) {
		now += time.Duration(subframes) * Subframe
		cell.Advance(now, true)
	}
	for range 4 {
		admit()
	}
	for pairs := 0; pairs < 10000; {
		for _, u := range live {
			for range rng.Intn(4) {
				u.Enqueue(Packet{Bytes: 100 + rng.Intn(1400)})
			}
		}
		run(1 + rng.Intn(60))
		// Detach one or two UEs, let the cell run without them, and
		// admit as many: the pairs empty the free list newest first.
		n := min(1+rng.Intn(2), len(live))
		for range n {
			k := rng.Intn(len(live))
			cell.DetachUE(live[k])
			live = append(live[:k], live[k+1:]...)
		}
		run(rng.Intn(3))
		for range n {
			admit()
		}
		pairs += n
		if len(cell.ues) > 4 {
			t.Fatalf("after %d residencies the cell holds %d rows for a population of at most 4", residencies, len(cell.ues))
		}
	}
	if reused < residencies-8 {
		t.Fatalf("only %d of %d residencies reused a row", reused, residencies)
	}
	served := bus.Count(obs.LTEGrant)
	if served < 10000 {
		t.Fatalf("the residencies were granted only %d times", served)
	}
}

// TestReusedRowLosesPFTie: a UE admitted into a low row freed by a detach is
// the newest arrival, and loses an exact PF tie to every UE attached before
// it. Rows 1 and 2 were never served and the newcomer in row 0 starts with
// no PF history, so on backlog all three score the newcomer boost,
// capacity / pfRateFloor; the grants go to rows 1, 2 and then 0, one whole
// subframe each.
func TestReusedRowLosesPFTie(t *testing.T) {
	clk := simclock.New()
	cell, err := NewCell(clk, CellConfig{Profile: ProfileCampus, AlwaysPF: true, CapacityStride: 1})
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	add := func(sub int32) *UE {
		u, err := cell.AddUE(DefaultUEConfig(int64(100+sub)), nil)
		if err != nil {
			t.Fatal(err)
		}
		u.SetProbe(bus.Probe(sub))
		return u
	}
	var caps []float64 // the capacity subframe k ran at, at index k-1
	run := func(n int) {
		for range n {
			cell.subframe(cell.at(cell.sfIndex + 1))
			caps = append(caps, cell.cap.current)
		}
	}
	a, b, c := add(0), add(1), add(2)
	a.Enqueue(Packet{Bytes: 40 << 10})
	run(50) // a alone is served: its row's served rate is far above the floor
	if cell.soa.ewma[a.id] <= 10*pfRateFloor {
		t.Fatalf("the leaver's served rate is %g, not far above the floor", cell.soa.ewma[a.id])
	}
	cell.DetachUE(a)
	d := add(3)
	if d != a || d.id != 0 || len(cell.ues) != 3 {
		t.Fatalf("the newcomer took row %d of %d, want the leaver's row 0", d.id, len(cell.ues))
	}
	start := len(bus.Events())
	for _, u := range []*UE{d, c, b} { // backlogged past the knee
		u.Enqueue(Packet{Bytes: 20 << 10})
	}
	run(3)
	var grants []obs.Event
	for _, e := range bus.Events()[start:] {
		if e.Kind == obs.LTEGrant {
			grants = append(grants, e)
		}
	}
	if len(grants) != 3 {
		t.Fatalf("%d grants in the three tied subframes, want one each", len(grants))
	}
	for k, e := range grants {
		sf := int64(e.At / Subframe)
		if want := int32(k + 1); e.Sub != want {
			t.Fatalf("grant %d went to sub %d, want sub %d (attach order)", k, e.Sub, want)
		}
		if boost := caps[sf-1] / pfRateFloor; e.C != boost {
			t.Fatalf("sub %d won at metric %g, want the newcomer boost %g", e.Sub, e.C, boost)
		}
	}
}

// TestRowReuseAllocFree: a detach followed by an admit into the freed row
// allocates nothing, on an advanced cell whose UEs bring their generators.
func TestRowReuseAllocFree(t *testing.T) {
	clk := simclock.New()
	cell, err := NewCell(clk, CellConfig{Profile: ProfileCampus, AlwaysPF: true, CapacityStride: 10})
	if err != nil {
		t.Fatal(err)
	}
	ucfg := DefaultUEConfig(0)
	ucfg.Src = seeds.NewSource(1)
	deliver := func(Packet) {}
	u, err := cell.AddUE(ucfg, deliver)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	allocs := testing.AllocsPerRun(1000, func() {
		u.Enqueue(Packet{Bytes: 1200})
		now += 5 * Subframe
		cell.Advance(now, true)
		cell.DetachUE(u)
		if u, err = cell.AddUE(ucfg, deliver); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || len(cell.ues) != 1 {
		t.Fatalf("a detach and an admit allocate %v times and leave %d rows, want 0 and 1", allocs, len(cell.ues))
	}
}
