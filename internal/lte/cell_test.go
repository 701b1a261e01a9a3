package lte

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"poi360/internal/simclock"
)

// testCell builds an n-UE cell on a fresh clock. refill keeps each UE's
// buffer topped up to the given byte level every millisecond, modeling a
// saturating (backlogged) or lightly loaded source.
func testCell(t *testing.T, prof CellProfile, levels []int) (*simclock.Clock, *Cell, []*UE) {
	t.Helper()
	clk := simclock.New()
	cell, err := NewCell(clk, DefaultCellConfig(prof))
	if err != nil {
		t.Fatal(err)
	}
	ues := make([]*UE, len(levels))
	for i := range levels {
		u, err := cell.AddUE(DefaultUEConfig(int64(1000+i)), func(Packet) {})
		if err != nil {
			t.Fatal(err)
		}
		ues[i] = u
	}
	for i, u := range ues {
		u, level := u, levels[i]
		clk.Ticker(Subframe, func() {
			if want := level - u.BufferBytes(); want > 0 {
				u.Enqueue(Packet{Bytes: want})
			}
		})
	}
	cell.Start()
	return clk, cell, ues
}

// Two identical backlogged UEs must converge to near-equal long-run
// service: the PF metric equalizes served-rate ratios when channels are
// symmetric.
func TestPFEqualBackloggedSharesConverge(t *testing.T) {
	clk, _, ues := testCell(t, ProfileCampus, []int{64 << 10, 64 << 10})
	clk.Run(30 * time.Second)
	a, b := ues[0].TotalServedBits(), ues[1].TotalServedBits()
	if a <= 0 || b <= 0 {
		t.Fatalf("starved UE: a=%g b=%g", a, b)
	}
	ratio := a / b
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("unfair split between identical UEs: a=%g b=%g ratio=%g", a, b, ratio)
	}
}

// A UE's served rate must grow with its own buffer occupancy (Fig. 5):
// below the knee the grant is demand-limited, so a deeper buffer earns
// more subframe bits even under contention.
func TestPFServiceGrowsWithOwnBuffer(t *testing.T) {
	// Low demand: ~2 KB standing buffer (well under the 10 KB knee).
	_, lowServed := runTwoUE(t, 2<<10)
	// High demand: 20 KB standing buffer (above the knee).
	_, highServed := runTwoUE(t, 20<<10)
	if highServed <= lowServed*1.5 {
		t.Fatalf("served rate did not grow with own buffer: low=%g high=%g", lowServed, highServed)
	}
}

// runTwoUE runs a 2-UE campus cell where UE 0 is backlogged and UE 1's
// buffer is held at level; it returns (UE0, UE1) total served bits.
func runTwoUE(t *testing.T, level int) (float64, float64) {
	t.Helper()
	clk, _, ues := testCell(t, ProfileCampus, []int{64 << 10, level})
	clk.Run(20 * time.Second)
	return ues[0].TotalServedBits(), ues[1].TotalServedBits()
}

// The cell must not grant more than its capacity allows: total served
// bits across UEs stay within the nominal capacity budget (plus TBS-noise
// headroom).
func TestPFCellConservesCapacity(t *testing.T) {
	dur := 20 * time.Second
	clk, _, ues := testCell(t, ProfileCampus, []int{64 << 10, 64 << 10, 64 << 10, 64 << 10})
	clk.Run(dur)
	var total float64
	for _, u := range ues {
		total += u.TotalServedBits()
	}
	prof := ProfileCampus
	// Nominal budget: base capacity × (1 - background load) × duration.
	// TBS noise is zero-mean but allow 30% slack for capacity-process
	// excursions above base.
	budget := BaseCapacity(prof.RSSdBm) * (1 - prof.BackgroundLoad) * dur.Seconds() * 1.3
	if total > budget {
		t.Fatalf("cell over-granted: served %g bits > budget %g", total, budget)
	}
	if total < budget*0.3 {
		t.Fatalf("cell under-granted: served %g bits, budget %g", total, budget)
	}
}

// A multi-UE cell is a pure function of its configuration: two runs with
// identical seeds produce identical per-UE byte counters.
func TestCellDeterministic(t *testing.T) {
	run := func() []float64 {
		clk, _, ues := testCell(t, ProfileModerate, []int{64 << 10, 8 << 10, 24 << 10})
		clk.Run(10 * time.Second)
		out := make([]float64, len(ues))
		for i, u := range ues {
			out[i] = u.TotalServedBits()
		}
		return out
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic cell: %v vs %v", a, b)
	}
}

// The PF served-rate EWMA the metric divides by must be positive and
// finite for every UE after a long backlogged run.
func TestServedRateFiniteAndPositive(t *testing.T) {
	clk, cell, ues := testCell(t, ProfileCampus, []int{64 << 10, 64 << 10})
	clk.Run(5 * time.Second)
	for i, u := range ues {
		r := cell.soa.ewma[u.id]
		if !(r > 0) || math.IsInf(r, 0) || math.IsNaN(r) {
			t.Fatalf("UE %d served-rate EWMA = %g", i, r)
		}
	}
}

// Handover support: a UE detached mid-run stops being scheduled, stops
// emitting diag reports (the silence FBCC's watchdog keys on), discards
// its buffered bytes, and refuses new traffic; the surviving UE keeps its
// service. The detach must not disturb the cell's other trajectories. The
// cell is advanced, as the city's are: every event that touches it runs it
// to the present first.
func TestCellDetachUEStopsServiceAndDiag(t *testing.T) {
	clk := simclock.New()
	cfg := DefaultCellConfig(ProfileCampus)
	cfg.AlwaysPF = true
	cell, err := NewCell(clk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var diags [2]int
	ues := make([]*UE, 2)
	for i := range ues {
		u, err := cell.AddUE(DefaultUEConfig(int64(1000+i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		i := i
		u.SetDiagListener(func(DiagReport) { diags[i]++ })
		ues[i] = u
	}
	for _, u := range ues {
		u := u
		clk.Ticker(Subframe, func() {
			cell.Advance(clk.Now(), false)
			if !u.detached {
				if want := 32<<10 - u.BufferBytes(); want > 0 {
					u.Enqueue(Packet{Bytes: want})
				}
			}
		})
	}

	var droppedAtDetach int
	var diagsAtDetach int
	clk.Schedule(5*time.Second, func() {
		cell.Advance(clk.Now(), false)
		droppedAtDetach = cell.DetachUE(ues[0])
		diagsAtDetach = diags[0]
	})
	clk.Run(10 * time.Second)
	cell.Advance(10*time.Second, true)

	if droppedAtDetach <= 0 {
		t.Fatalf("detach of a backlogged UE dropped %d bytes, want > 0", droppedAtDetach)
	}
	if diags[0] != diagsAtDetach {
		t.Fatalf("detached UE kept emitting diag reports: %d at detach, %d at end", diagsAtDetach, diags[0])
	}
	if diags[1] < 200 {
		t.Fatalf("surviving UE starved of diag reports: %d", diags[1])
	}
	if ues[0].BufferBytes() != 0 {
		t.Fatalf("detached UE still buffers %d bytes", ues[0].BufferBytes())
	}
	if ues[0].Enqueue(Packet{Bytes: 100}) {
		t.Fatal("detached UE accepted a packet")
	}
	servedAtEnd := ues[0].TotalServedBits()
	if servedAtEnd <= 0 {
		t.Fatal("UE was never served before the detach")
	}
	if ues[1].TotalServedBits() <= servedAtEnd {
		t.Fatal("surviving UE should out-serve the half-session UE")
	}
}

// TestDetachRecyclesQueue: DetachUE empties the row's firmware queue —
// every slot zeroed, the wrapped part of the live window and the served
// slots included — and the ring stays with the row, which the next AddUE
// on the cell reuses: the same *UE, its queue empty and at its full
// capacity. Until then the handle answers as the detached UE. With no row
// free, AddUE appends one with a fresh queue.
func TestDetachRecyclesQueue(t *testing.T) {
	clk := simclock.New()
	cell, err := NewCell(clk, DefaultCellConfig(ProfileCampus))
	if err != nil {
		t.Fatal(err)
	}
	u, err := cell.AddUE(DefaultUEConfig(1000), nil)
	if err != nil {
		t.Fatal(err)
	}
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

	v, err := cell.AddUE(DefaultUEConfig(1001), nil)
	if err != nil {
		t.Fatal(err)
	}
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
	w, err := cell.AddUE(DefaultUEConfig(1002), nil)
	if err != nil {
		t.Fatal(err)
	}
	if w == v || len(cell.ues) != 2 || w.queue.Cap() != 32 {
		t.Fatalf("with no row free, AddUE gave %d rows and a queue of cap %d, want a second row with a fresh one of 32", len(cell.ues), w.queue.Cap())
	}
	w.Enqueue(pkt)
	if w.queue.Front() == slot0 {
		t.Fatal("with no row free, AddUE reused the detached ring")
	}
}

// Handover support: AddUE admits a UE to a running (advanced) cell, and
// the newcomer gets scheduled and reports diags from fresh state. A cell
// driven by Start refuses: its population is fixed when it starts.
func TestCellAttachUEAfterStart(t *testing.T) {
	clk := simclock.New()
	cfg := DefaultCellConfig(ProfileCampus)
	cfg.AlwaysPF = true
	cell, err := NewCell(clk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := cell.AddUE(DefaultUEConfig(1000), nil)
	if err != nil {
		t.Fatal(err)
	}
	clk.Ticker(Subframe, func() {
		cell.Advance(clk.Now(), false)
		if !first.detached {
			if want := 32<<10 - first.BufferBytes(); want > 0 {
				first.Enqueue(Packet{Bytes: want})
			}
		}
	})

	var late *UE
	var lateDiags int
	clk.Schedule(3*time.Second, func() {
		cell.Advance(clk.Now(), false)
		u, err := cell.AddUE(DefaultUEConfig(2000), nil)
		if err != nil {
			t.Fatalf("AddUE to a running cell: %v", err)
		}
		u.SetDiagListener(func(DiagReport) { lateDiags++ })
		late = u
		clk.Ticker(Subframe, func() {
			cell.Advance(clk.Now(), false)
			if want := 32<<10 - u.BufferBytes(); want > 0 {
				u.Enqueue(Packet{Bytes: want})
			}
		})
	})
	clk.Run(8 * time.Second)
	cell.Advance(8*time.Second, true)

	if late == nil {
		t.Fatal("late UE never attached")
	}
	if late.TotalServedBits() <= 0 {
		t.Fatal("late-attached UE was never served")
	}
	if lateDiags < 100 {
		t.Fatalf("late-attached UE reported %d diags, want ≈125", lateDiags)
	}
	if first.TotalServedBits() <= late.TotalServedBits() {
		t.Fatal("incumbent should out-serve the late joiner over the whole run")
	}

	started, err := NewCell(simclock.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := started.AddUE(DefaultUEConfig(1000), nil); err != nil {
		t.Fatal(err)
	}
	started.Start()
	if _, err := started.AddUE(DefaultUEConfig(2000), nil); err == nil {
		t.Fatal("a started cell admitted a UE")
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
		cell, err := NewCell(clk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		u, err := cell.AddUE(DefaultUEConfig(1000), nil)
		if err != nil {
			t.Fatal(err)
		}
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
				cell, err := NewCell(clk, cfg)
				if err != nil {
					b.Fatal(err)
				}
				ues := make([]*UE, n)
				for i := range ues {
					if ues[i], err = cell.AddUE(DefaultUEConfig(int64(i+1)), nil); err != nil {
						b.Fatal(err)
					}
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
