package lte

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"poi360/internal/obs"
	"poi360/internal/seeds"
	"poi360/internal/simclock"
)

// testCell starts a cell of len(levels) UEs on a fresh clock, UE i's
// buffer topped up to levels[i] bytes every subframe.
func testCell(t *testing.T, prof CellProfile, levels []int) (*simclock.Clock, *Cell, []*UE) {
	t.Helper()
	clk := simclock.New()
	cell := newCell(t, clk, DefaultCellConfig(prof))
	ues := make([]*UE, len(levels))
	for i := range levels {
		ues[i] = addUE(t, cell, DefaultUEConfig(int64(1000+i)), func(Packet) {})
		fillTo(clk, ues[i], levels[i])
	}
	cell.Start()
	return clk, cell, ues
}

// served runs a started cell of len(levels) UEs (testCell) for d and
// returns each UE's served bits and served-rate EWMA.
func served(t *testing.T, prof CellProfile, d time.Duration, levels ...int) (bits, ewma []float64) {
	clk, cell, ues := testCell(t, prof, levels)
	clk.Run(d)
	for _, u := range ues {
		bits = append(bits, u.TotalServedBits())
		ewma = append(ewma, cell.soa.ewma[u.id])
	}
	return bits, ewma
}

// The PF cell: two identical backlogged UEs converge to near-equal
// long-run service (the metric equalizes served-rate ratios on symmetric
// channels) with positive, finite served-rate EWMAs; a UE's service grows
// with its own buffer occupancy under contention (Fig. 5: below the
// 10 KB knee the grant is demand-limited); four backlogged UEs together
// get no more than the nominal capacity (base × (1 − load) × duration,
// with 30 % slack for the capacity process) and at least 30 % of it; and
// a multi-UE cell is a pure function of its configuration.
func TestPFCell(t *testing.T) {
	t.Run("EqualBackloggedSharesConverge", func(t *testing.T) {
		bits, ewma := served(t, ProfileCampus, 30*time.Second, 64<<10, 64<<10)
		if r := bits[0] / bits[1]; bits[0] <= 0 || bits[1] <= 0 || r < 0.9 || r > 1.1 {
			t.Fatalf("unfair split between identical UEs: %v", bits)
		}
		for i, e := range ewma {
			if !(e > 0) || math.IsInf(e, 0) {
				t.Fatalf("UE %d served-rate EWMA = %g", i, e)
			}
		}
	})
	t.Run("ServiceGrowsWithOwnBuffer", func(t *testing.T) {
		low, _ := served(t, ProfileCampus, 20*time.Second, 64<<10, 2<<10)
		high, _ := served(t, ProfileCampus, 20*time.Second, 64<<10, 20<<10)
		if high[1] <= low[1]*1.5 {
			t.Fatalf("served rate did not grow with own buffer: low=%g high=%g", low[1], high[1])
		}
	})
	t.Run("ConservesCapacity", func(t *testing.T) {
		four, _ := served(t, ProfileCampus, 20*time.Second, 64<<10, 64<<10, 64<<10, 64<<10)
		budget := BaseCapacity(ProfileCampus.RSSdBm) * (1 - ProfileCampus.BackgroundLoad) * 20 * 1.3
		if total := four[0] + four[1] + four[2] + four[3]; total > budget || total < budget*0.3 {
			t.Fatalf("cell served %g bits, budget %g", total, budget)
		}
	})
	t.Run("Deterministic", func(t *testing.T) {
		a, _ := served(t, ProfileModerate, 10*time.Second, 64<<10, 8<<10, 24<<10)
		if b, _ := served(t, ProfileModerate, 10*time.Second, 64<<10, 8<<10, 24<<10); !reflect.DeepEqual(a, b) {
			t.Fatalf("nondeterministic cell: %v vs %v", a, b)
		}
	})
}

// Handover support on an advanced cell, which every event that touches
// runs to the present first, as the city's are. AddUE admits a UE to the
// running cell (at 3 s), which is scheduled and reports diags from fresh
// state; a UE detached mid-run (at 5 s) stops being scheduled, stops
// emitting diag reports (the silence FBCC's watchdog keys on), discards
// its buffered bytes and refuses new traffic, while the others keep their
// service. A cell driven by Start refuses AddUE: its population is fixed
// when it starts.
func TestCellHandover(t *testing.T) {
	clk := simclock.New()
	cfg := DefaultCellConfig(ProfileCampus)
	cfg.AlwaysPF = true
	cell := newCell(t, clk, cfg)
	var diags [3]int
	ues := make([]*UE, 3)
	join := func(i int) {
		ues[i] = addUE(t, cell, DefaultUEConfig(int64(1000*(1+i/2)+i%2)), nil)
		ues[i].SetDiagListener(func(DiagReport) { diags[i]++ })
		u := ues[i]
		clk.Ticker(Subframe, func() {
			cell.Advance(clk.Now(), false)
			if want := 32<<10 - u.BufferBytes(); !u.detached && want > 0 {
				u.Enqueue(Packet{Bytes: want})
			}
		})
	}
	join(0)
	join(1)
	clk.Schedule(3*time.Second, func() {
		cell.Advance(clk.Now(), false)
		join(2)
	})
	var dropped, diagsAtDetach int
	clk.Schedule(5*time.Second, func() {
		cell.Advance(clk.Now(), false)
		dropped, diagsAtDetach = cell.DetachUE(ues[0]), diags[0]
	})
	clk.Run(10 * time.Second)
	cell.Advance(10*time.Second, true)

	if dropped <= 0 || diags[0] != diagsAtDetach || ues[0].BufferBytes() != 0 || ues[0].Enqueue(Packet{Bytes: 100}) {
		t.Fatalf("detach dropped %d bytes; the detached UE then reported %d more diags, buffers %d bytes and accepts packets",
			dropped, diags[0]-diagsAtDetach, ues[0].BufferBytes())
	}
	if diags[1] < 200 || diags[2] < 150 {
		t.Fatalf("diag reports: incumbent %d, late joiner %d; want ≥ 200 and ≈175", diags[1], diags[2])
	}
	served := [3]float64{ues[0].TotalServedBits(), ues[1].TotalServedBits(), ues[2].TotalServedBits()}
	if served[0] <= 0 || served[2] <= 0 || served[1] <= served[0] || served[1] <= served[2] {
		t.Fatalf("served bits %v: the surviving incumbent should out-serve the half-session UE and the late joiner", served)
	}

	t.Run("StartedRefusesAddUE", func(t *testing.T) {
		started := newCell(t, simclock.New(), cfg)
		addUE(t, started, DefaultUEConfig(1000), nil)
		started.Start()
		if _, err := started.AddUE(DefaultUEConfig(2000), nil); err == nil {
			t.Fatal("a started cell admitted a UE")
		}
	})
}

// TestDetachRecyclesQueue: DetachUE empties the row's firmware queue —
// every slot zeroed, the wrapped part of the live window and the served
// slots included — and the ring stays with the row, which the next AddUE
// on the cell reuses: the same *UE, its queue empty and at its full
// capacity. Until then the handle answers as the detached UE. With no row
// free, AddUE appends one with a fresh queue.
func TestDetachRecyclesQueue(t *testing.T) {
	clk := simclock.New()
	cell := newCell(t, clk, DefaultCellConfig(ProfileCampus))
	u := addUE(t, cell, DefaultUEConfig(1000), nil)
	payload := new(int)
	pkt := Packet{Bytes: 1200, Payload: payload}
	for i := 0; i < 100; i++ { // past the initial 32 slots: the queue regrows
		u.Enqueue(pkt)
	}
	capacity := u.queue.Cap()
	slot0 := u.queue.At(0) // nothing popped yet: the front is slot 0
	now := time.Duration(0)
	for u.queue.Len() > 98 { // serve a prefix
		now += Subframe
		cell.Advance(now, true)
	}
	for u.queue.Len() < capacity-1 { // refill past the ring's end
		if !u.Enqueue(pkt) {
			t.Fatal("the firmware buffer filled before the queue wrapped")
		}
	}
	if u.queue.Cap() != capacity || *slot0 != pkt {
		t.Fatal("the live window does not wrap into slot 0; the fixture no longer covers it")
	}

	if dropped := cell.DetachUE(u); dropped == 0 {
		t.Fatal("detach of a backlogged UE dropped nothing")
	}
	if len(cell.free) != 1 || cell.free[0] != int32(u.id) {
		t.Fatalf("free rows %v after detaching row %d, want just it", cell.free, u.id)
	}
	if u.queue.Len() != 0 || u.queue.Cap() != capacity {
		t.Fatalf("the detached row's queue holds %d of %d, want its ring emptied (cap %d)", u.queue.Len(), u.queue.Cap(), capacity)
	}
	if *slot0 != (Packet{}) {
		t.Fatalf("the detached ring's slot 0 still holds %+v", *slot0)
	}
	if u.Enqueue(pkt) {
		t.Fatal("detached UE accepted a packet")
	}
	if b := u.BufferBytes(); b != 0 {
		t.Fatalf("detached UE reports %d buffered bytes", b)
	}

	v := addUE(t, cell, DefaultUEConfig(1001), nil)
	if v != u || len(cell.ues) != 1 || len(cell.free) != 0 {
		t.Fatalf("next AddUE did not reuse the free row (same handle %v, %d rows, %d free)", v == u, len(cell.ues), len(cell.free))
	}
	if v.queue.Len() != 0 || v.queue.Cap() != capacity {
		t.Fatalf("next AddUE's queue holds %d of %d, want the detached ring (cap %d)", v.queue.Len(), v.queue.Cap(), capacity)
	}
	v.Enqueue(pkt)
	if v.queue.Front() != slot0 {
		t.Fatal("next AddUE's queue is not on the detached ring")
	}
	w := addUE(t, cell, DefaultUEConfig(1002), nil)
	if w == v || len(cell.ues) != 2 || w.queue.Cap() != 32 {
		t.Fatalf("with no row free, AddUE gave %d rows and a queue of cap %d, want a second row with a fresh one of 32", len(cell.ues), w.queue.Cap())
	}
	w.Enqueue(pkt)
	if w.queue.Front() == slot0 {
		t.Fatal("with no row free, AddUE reused the detached ring")
	}
}

// AlwaysPF keeps the discipline fixed under churn: a single-UE cell with
// AlwaysPF set serves through the PF allocator (deterministically), and
// the legacy default still uses the stochastic single-UE path — their
// trajectories differ.
func TestCellAlwaysPFSingleUE(t *testing.T) {
	run := func(alwaysPF bool) float64 {
		clk := simclock.New()
		cfg := DefaultCellConfig(ProfileCampus)
		cfg.AlwaysPF = alwaysPF
		cell := newCell(t, clk, cfg)
		u := addUE(t, cell, DefaultUEConfig(1000), nil)
		clk.Ticker(Subframe, func() {
			if want := 32<<10 - u.BufferBytes(); want > 0 {
				u.Enqueue(Packet{Bytes: want})
			}
		})
		cell.Start()
		clk.Run(5 * time.Second)
		return u.TotalServedBits()
	}
	pf, legacy := run(true), run(false)
	if pf <= 0 || legacy <= 0 {
		t.Fatalf("starved: pf=%g legacy=%g", pf, legacy)
	}
	if pf == legacy {
		t.Fatal("AlwaysPF did not change the single-UE discipline")
	}
	if pf2 := run(true); pf2 != pf {
		t.Fatalf("AlwaysPF path nondeterministic: %g vs %g", pf, pf2)
	}
}

// BenchmarkPFSubframe times one subframe (ns/op) of a city-configured cell
// whose 1, 4 or 16 UEs are each fed one video frame every 1/30 s: u1, u4
// and u16 four MTU packets per UE on a ticked cell, the shape of the
// benchmark's lte.pf_ns_per_subframe rows (u4 sits at Σ occupancy 1.88,
// contended); light one packet per UE, the city's uncontended shape;
// advanced the city's driver, catching up before each feed (light: mostly
// row by row; heavy: the per-subframe body until the buffers fit).
func BenchmarkPFSubframe(b *testing.B) {
	for _, v := range []struct {
		name     string
		advanced bool
		pkts     int
		ues      []int
	}{
		{"", false, 4, []int{1, 4, 16}},
		{"light/", false, 1, []int{1, 4}},
		{"advanced/", true, 1, []int{1, 4}},
		{"advanced/heavy/", true, 4, []int{4}},
	} {
		for _, n := range v.ues {
			b.Run(fmt.Sprintf("%su%d", v.name, n), func(b *testing.B) {
				clk := simclock.New()
				cfg := DefaultCellConfig(ProfileCampus)
				cfg.Profile.Seed = 1
				cfg.AlwaysPF = true
				cfg.CapacityStride = 10
				cell := newCell(b, clk, cfg)
				ues := make([]*UE, n)
				for i := range ues {
					ues[i] = addUE(b, cell, DefaultUEConfig(int64(i+1)), nil)
				}
				if !v.advanced {
					cell.Start()
				}
				clk.Ticker(time.Second/30, func() {
					if v.advanced {
						cell.Advance(clk.Now(), false)
					}
					for _, u := range ues {
						for k := 0; k < v.pkts; k++ {
							u.Enqueue(Packet{Bytes: 1200})
						}
					}
				})
				run := func(to time.Duration) {
					clk.Run(to)
					if v.advanced {
						cell.Advance(to, true)
					}
				}
				run(time.Second)
				b.ResetTimer()
				run(clk.Now() + time.Duration(b.N)*Subframe)
			})
		}
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
	cell := newCell(t, clk, CellConfig{Profile: ProfileCampus, AlwaysPF: true, CapacityStride: 1})
	bus := obs.NewBus()
	add := func(sub int32) *UE {
		u := addUE(t, cell, DefaultUEConfig(int64(100+sub)), nil)
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
	cell := newCell(t, clk, CellConfig{Profile: ProfileCampus, AlwaysPF: true, CapacityStride: 10})
	ucfg := DefaultUEConfig(0)
	ucfg.Src = seeds.NewSource(1)
	deliver := func(Packet) {}
	u := addUE(t, cell, ucfg, deliver)
	now, err := time.Duration(0), error(nil)
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

// A cell is driven one way: Start after Advance panics, and so do Advance
// and DetachUE after Start.
func TestCellDrivenOneWay(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Run(what, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn()
		})
	}
	cfg := CellConfig{Profile: ProfileCampus, AlwaysPF: true}
	advanced := newCell(t, simclock.New(), cfg)
	advanced.Advance(5*time.Millisecond, true)
	mustPanic("Start on an advanced cell", advanced.Start)

	started := newCell(t, simclock.New(), cfg)
	u := addUE(t, started, DefaultUEConfig(1), nil)
	started.Start()
	mustPanic("Advance on a started cell", func() { started.Advance(5*time.Millisecond, true) })
	mustPanic("DetachUE on a started cell", func() { started.DetachUE(u) })
}

// A sleeping cell holds nothing on the clock, nor does any advanced cell;
// a started one holds its ticker, unless it was started empty (a started
// cell admits no UE, so it would tick for nobody).
func TestSleepingCellSchedulesNothing(t *testing.T) {
	clk := simclock.New()
	cell := newCell(t, clk, CellConfig{Profile: ProfileCampus, AlwaysPF: true})
	cell.Advance(3*time.Millisecond, true)
	if n := clk.Pending(); n != 0 {
		t.Fatalf("empty advanced cell holds %d pending events", n)
	}
	u := addUE(t, cell, DefaultUEConfig(1), nil)
	u.Enqueue(Packet{Bytes: 5000})
	clk.Run(50 * time.Millisecond)
	cell.Advance(50*time.Millisecond, true)
	if n := clk.Pending(); n != 0 {
		t.Fatalf("populated advanced cell holds %d pending events", n)
	}
	if u.TotalServedBits() == 0 {
		t.Fatal("the advance served nothing")
	}
	cell.DetachUE(u)
	cell.Advance(60*time.Millisecond, true)
	if n := clk.Pending(); n != 0 {
		t.Fatalf("advanced cell left asleep holds %d pending events", n)
	}

	for _, ues := range []int{0, 1} {
		clk := simclock.New()
		cell := newCell(t, clk, CellConfig{Profile: ProfileCampus, AlwaysPF: true})
		for i := 0; i < ues; i++ {
			addUE(t, cell, DefaultUEConfig(1), nil)
		}
		cell.Start()
		if n := clk.Pending(); n != ues {
			t.Fatalf("cell started with %d UEs holds %d pending events, want %d", ues, n, ues)
		}
	}
}
