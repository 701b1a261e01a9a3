package lte

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"poi360/internal/seeds"
	"poi360/internal/simclock"
)

// An advanced cell (Advance) with no attached UE sleeps: it holds no ticker
// — no advanced cell does — and its advance through the empty stretch is the
// capacity process and the subframe counter alone. The oracle for "the
// advance is exact" is the same production cell on Start's 1 ms ticker
// (tickFromTest), whose empty subframes run the same body; the tapes empty
// the cell, refill it, and admit, detach and read it around and between
// subframes, the way the city's barrier and endpoint tick do.

// tickFromTest puts c on the ticker Start registers, without Start's
// refusal of AddUE and DetachUE: the reference for an advanced cell.
func tickFromTest(c *Cell) {
	c.clk.Ticker(Subframe, func() { c.subframe(c.clk.Now()) })
}

// sleepOp is one step of a tape, applied between clock runs the way the
// city's barrier applies attaches and detaches.
type sleepOp struct {
	at   time.Duration
	kind byte // 'a' attach slot, 'd' detach slot, 'e' enqueue n packets on slot, 'c' read capacity
	slot int
	n    int
}

// playSleepTape runs tape on one cell, ticked or advanced, and returns
// everything observable: each residency's deliveries and diag reports with
// their instants, in order, and its served bits; every capacity read and
// every detach's dropped bytes. Within an advance the cell may run rows in
// any order, so residencies keep separate logs.
func playSleepTape(t *testing.T, cfg CellConfig, tape []sleepOp, end time.Duration, advanced bool) []string {
	t.Helper()
	clk := simclock.New()
	cfg.Src = seeds.NewSource(cfg.Profile.Seed)
	cell, err := NewCell(clk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !advanced {
		tickFromTest(cell)
	}
	run := func(to time.Duration) {
		clk.Run(to)
		if advanced {
			cell.Advance(to, true)
		}
	}

	var log []string
	var logs [][]string // by residency
	var slots [3]*UE
	var all []*UE
	residency, pktID := 0, int64(0)
	for _, op := range tape {
		run(op.at)
		switch op.kind {
		case 'a':
			r := residency
			residency++
			logs = append(logs, nil)
			ucfg := DefaultUEConfig(0)
			ucfg.Src = seeds.NewSource(int64(1000 + r))
			var u *UE
			u, err = cell.AddUE(ucfg, func(p Packet) {
				logs[r] = append(logs[r], fmt.Sprintf("deliver r%d pkt %d enq %v at %v", r, p.ID, p.Enq, u.Now()))
			})
			if err != nil {
				t.Fatal(err)
			}
			u.SetDiagListener(func(rep DiagReport) {
				logs[r] = append(logs[r], fmt.Sprintf("diag r%d %+v", r, rep))
			})
			slots[op.slot] = u
			all = append(all, u)
		case 'd':
			log = append(log, fmt.Sprintf("detach at %v dropped %d", op.at, cell.DetachUE(slots[op.slot])))
			slots[op.slot] = nil
		case 'e':
			for k := 0; k < op.n; k++ {
				pktID++
				slots[op.slot].Enqueue(Packet{ID: pktID, Bytes: 200 + int(pktID*37%1000)})
			}
		case 'c':
			log = append(log, fmt.Sprintf("capacity at %v = %v", op.at, cell.cap.current))
		}
	}
	run(end)
	for r, u := range all {
		log = append(log, logs[r]...)
		log = append(log, fmt.Sprintf("r%d served %v dropped %d", r, u.TotalServedBits(), u.dropped))
	}
	log = append(log, fmt.Sprintf("capacity at end = %v", cell.cap.current))
	return log
}

// randomSleepTape draws a tape over three slots whose population keeps
// returning to zero. Most instants sit on the subframe grid (barriers do);
// some do not. It reports how many attaches found the cell empty.
func randomSleepTape(seed int64, end time.Duration) (tape []sleepOp, wakes int) {
	rng := rand.New(rand.NewSource(seed))
	var attached [3]bool
	pop := 0
	var at time.Duration
	for {
		at += time.Duration(1+rng.Intn(150)) * Subframe
		if rng.Intn(8) == 0 {
			at += time.Duration(rng.Intn(int(Subframe)))
		}
		if at >= end {
			return tape, wakes
		}
		slot := rng.Intn(len(attached))
		switch r := rng.Intn(10); {
		case r < 2:
			tape = append(tape, sleepOp{at: at, kind: 'c'})
		case !attached[slot] && (r < 5 || pop == 0):
			if pop == 0 {
				wakes++
			}
			attached[slot] = true
			pop++
			tape = append(tape, sleepOp{at: at, kind: 'a', slot: slot}, sleepOp{at: at, kind: 'e', slot: slot, n: 1 + rng.Intn(30)})
		case attached[slot] && r < 7:
			attached[slot] = false
			pop--
			tape = append(tape, sleepOp{at: at, kind: 'd', slot: slot})
		case attached[slot]:
			tape = append(tape, sleepOp{at: at, kind: 'e', slot: slot, n: 1 + rng.Intn(40)})
		}
	}
}

func TestSleepingCellMatchesTickingCell(t *testing.T) {
	const end = 12 * time.Second
	ms := time.Millisecond
	fault := func(now time.Duration) float64 {
		if now >= 3*time.Second && now < 5*time.Second {
			return 0.3
		}
		return 1
	}
	tapes := map[string][]sleepOp{
		// The last UE detaches and another attaches at the same instant.
		"handoff-same-instant": {
			{at: 0, kind: 'a', slot: 0}, {at: 0, kind: 'e', slot: 0, n: 20},
			{at: 700 * ms, kind: 'd', slot: 0}, {at: 700 * ms, kind: 'a', slot: 1}, {at: 700 * ms, kind: 'e', slot: 1, n: 20},
			{at: 900 * ms, kind: 'd', slot: 1}, {at: 2 * time.Second, kind: 'c'},
		},
		// The cell slept the whole run so far: empty from the start, joined late.
		"wake-after-sleeping-since-start": {
			{at: 4321 * ms, kind: 'a', slot: 2}, {at: 4321 * ms, kind: 'e', slot: 2, n: 60},
			{at: 4400 * ms, kind: 'e', slot: 2, n: 60},
		},
		// Between two subframes the cell admits and loses UEs, is read
		// asleep, and is joined again.
		"off-grid-around-a-sleep": {
			{at: 0, kind: 'a', slot: 0}, {at: 10*ms + 400*time.Microsecond, kind: 'a', slot: 1},
			{at: 10*ms + 400*time.Microsecond, kind: 'e', slot: 1, n: 30}, {at: 10*ms + 700*time.Microsecond, kind: 'd', slot: 0},
			{at: 300*ms + 900*time.Microsecond, kind: 'd', slot: 1}, {at: 2000*ms + 100*time.Microsecond, kind: 'c'},
			{at: 2001 * ms, kind: 'a', slot: 2}, {at: 2001 * ms, kind: 'e', slot: 2, n: 30},
		},
		// A sleeping cell read repeatedly, then joined and left.
		"capacity-reads-while-asleep": {
			{at: 1 * ms, kind: 'c'}, {at: 1500 * ms, kind: 'c'}, {at: 1500 * ms, kind: 'c'}, {at: 3999*ms + 1, kind: 'c'},
			{at: 6 * time.Second, kind: 'a', slot: 0}, {at: 6 * time.Second, kind: 'e', slot: 0, n: 10}, {at: 6100 * ms, kind: 'd', slot: 0},
			{at: 9 * time.Second, kind: 'c'},
		},
	}
	for seed := int64(1); seed <= 6; seed++ {
		tape, wakes := randomSleepTape(seed, end)
		if wakes < 3 {
			t.Fatalf("random tape %d wakes the cell %d times; fix the generator", seed, wakes)
		}
		tapes[fmt.Sprintf("random-%d", seed)] = tape
	}

	for name, tape := range tapes {
		for _, stride := range []int{1, 10} {
			for _, faulted := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/stride-%d/fault-%v", name, stride, faulted), func(t *testing.T) {
					prof := ProfileBusy
					prof.SpeedMph = 30 // fades and outages draw from the cell's stream too
					prof.Seed = 77
					cfg := CellConfig{Profile: prof, AlwaysPF: true, CapacityStride: stride}
					if faulted {
						cfg.CapacityFault = fault
					}
					want := playSleepTape(t, cfg, tape, end, false)
					got := playSleepTape(t, cfg, tape, end, true)
					if len(want) < 3 {
						t.Fatalf("reference observed only %d things", len(want))
					}
					for i := 0; i < len(want) && i < len(got); i++ {
						if got[i] != want[i] {
							t.Fatalf("observation %d:\n advanced: %s\n  ticking: %s", i, got[i], want[i])
						}
					}
					if len(got) != len(want) {
						t.Fatalf("advanced cell observed %d things, ticking cell %d", len(got), len(want))
					}
				})
			}
		}
	}
}

// A sleeping cell holds nothing on the clock, nor does any advanced cell;
// a started one holds its ticker, unless it was started empty (a started
// cell admits no UE, so it would tick for nobody).
func TestSleepingCellSchedulesNothing(t *testing.T) {
	clk := simclock.New()
	cell, err := NewCell(clk, CellConfig{Profile: ProfileCampus, AlwaysPF: true})
	if err != nil {
		t.Fatal(err)
	}
	cell.Advance(3*time.Millisecond, true)
	if n := clk.Pending(); n != 0 {
		t.Fatalf("empty advanced cell holds %d pending events", n)
	}
	u, err := cell.AddUE(DefaultUEConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
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
		cell, err := NewCell(clk, CellConfig{Profile: ProfileCampus, AlwaysPF: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ues; i++ {
			if _, err := cell.AddUE(DefaultUEConfig(1), nil); err != nil {
				t.Fatal(err)
			}
		}
		cell.Start()
		if n := clk.Pending(); n != ues {
			t.Fatalf("cell started with %d UEs holds %d pending events, want %d", ues, n, ues)
		}
	}
}
