package lte

import (
	"fmt"
	"testing"
	"time"

	"poi360/internal/obs"
	"poi360/internal/seeds"
	"poi360/internal/simclock"
)

// advScenario is one feed of TestAdvancedCellMatchesTickedCell.
type advScenario struct {
	ues    int
	pkts   int           // packets per UE per feed
	period time.Duration // feed period
	stride int
	fault  bool // a window of factor-0 capacity
	split  bool // feeds that fill the UEs to exactly one knee together
	probed bool // every UE carries a telemetry probe
}

// advRun is what one driver made of a scenario: per UE, its deliveries and
// diag reports in order, and its telemetry events (lte.grant, lte.diag,
// lte.drop) when probed; then its end state. switched counts the advances
// that started contended and ended uncontended (the row kernel took over
// inside them), rowsOnly those that started uncontended.
type advRun struct {
	logs     [][]string
	events   [][]obs.Event
	end      []string
	switched int
	rowsOnly int
}

// settledEWMA is row i's served-rate EWMA with the updates pfPend and
// pfIdle still defer applied, as the next pfGrant would.
func settledEWMA(c *Cell, i int) float64 {
	e := c.soa.ewma[i]
	if c.pfPend {
		e += pfAlpha * (c.soa.pfServed[i]*invSubframeSec - e)
	}
	for j := c.pfIdle; j > 0 && e != 0; j-- {
		e += pfAlpha * (0 - e)
	}
	return e
}

// playAdvScenario feeds a city-configured cell on its clock the way the
// city's endpoint tick does: the UEs join 400.3 ms into the run (the cell
// is empty until then), each feed enqueues pkts packets per UE — the last
// of several UEs only every sixteenth feed unless the feed is split, so
// that its buffer runs dry and it idles with a served rate to decay — UE 0
// is detached at 1.7003 s and a fresh UE joins at 2.2003 s. An advanced cell
// runs to each feed exclusive of it and to the end inclusive.
func playAdvScenario(t *testing.T, sc advScenario, advanced bool) advRun {
	t.Helper()
	const end = 3 * time.Second
	clk := simclock.New()
	prof := ProfileCampus
	prof.Seed = 41
	cfg := CellConfig{Profile: prof, AlwaysPF: true, CapacityStride: sc.stride, Src: seeds.NewSource(41)}
	if sc.fault {
		cfg.CapacityFault = func(now time.Duration) float64 {
			if now >= 900*time.Millisecond && now < 1300*time.Millisecond {
				return 0
			}
			return 1
		}
	}
	cell, err := NewCell(clk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !advanced {
		tickFromTest(cell)
	}
	var run advRun
	var ues []*UE
	bus := obs.NewBus()
	join := func() {
		k := len(ues)
		ucfg := DefaultUEConfig(0)
		ucfg.Src = seeds.NewSource(int64(500 + k))
		run.logs = append(run.logs, nil)
		var u *UE
		u, err := cell.AddUE(ucfg, func(p Packet) {
			run.logs[k] = append(run.logs[k], fmt.Sprintf("deliver %d at %v", p.ID, u.Now()))
		})
		if err != nil {
			t.Fatal(err)
		}
		if sc.probed {
			u.SetProbe(bus.Probe(int32(k)))
		}
		u.SetDiagListener(func(rep DiagReport) {
			run.logs[k] = append(run.logs[k], fmt.Sprintf("diag %+v credit %v", rep, u.credit))
		})
		ues = append(ues, u)
	}
	// catchUp brings an advanced cell to the present, exclusive of it, and
	// tallies what the advance started and ended as.
	catchUp := func() {
		if !advanced {
			return
		}
		before := cell.uncontended()
		cell.Advance(clk.Now(), false)
		switch after := cell.uncontended(); {
		case before:
			run.rowsOnly++
		case after:
			run.switched++
		}
	}
	clk.Schedule(400*time.Millisecond+300*time.Microsecond, func() {
		catchUp()
		for range sc.ues {
			join()
		}
	})
	clk.Schedule(1700*time.Millisecond+300*time.Microsecond, func() {
		catchUp()
		cell.DetachUE(ues[0])
	})
	clk.Schedule(2200*time.Millisecond+300*time.Microsecond, func() {
		catchUp()
		join()
	})
	id, feed := int64(0), 0
	clk.Ticker(sc.period, func() {
		catchUp()
		feed++
		for k, u := range ues {
			if k == len(ues)-1 && k > 0 && !sc.split && feed%16 != 0 {
				continue
			}
			for p := 0; p < sc.pkts; p++ {
				id++
				bytes := 200 + int(id*37%1000)
				if sc.split {
					// Together the UEs hold one knee: Σ occupancy is 1 up
					// to the rounding of each share.
					bytes = bufferKneeBytes / len(ues)
					if k == 0 {
						bytes += bufferKneeBytes % len(ues)
					}
				}
				u.Enqueue(Packet{ID: id, Bytes: bytes})
			}
		}
	})
	clk.Run(end)
	if advanced {
		cell.Advance(end, true)
	}
	for i, u := range ues {
		run.end = append(run.end, fmt.Sprintf("ue %d buf %d ewma %v credit %v served %v dropped %d",
			i, cell.soa.buf[i], settledEWMA(cell, i), u.credit, u.TotalServedBits(), u.dropped))
	}
	run.end = append(run.end, fmt.Sprintf("capacity %v", cell.cap.current))
	run.events = make([][]obs.Event, len(ues))
	for _, e := range bus.Events() {
		run.events[e.Sub] = append(run.events[e.Sub], e)
	}
	return run
}

// TestAdvancedCellMatchesTickedCell holds Advance, row kernel included, to
// the ticked cell: per UE the same deliveries at the same air instants and
// the same diag reports, and at the end the same buffers, EWMAs, credits
// and served bits to the last bit. Light feeds (one packet per UE per frame)
// leave most stretches uncontended from the start; heavy ones (four) on
// four UEs start contended and turn uncontended inside the stretch (16
// heavy UEs overload the cell). A 20 ms feed lands on the subframe grid,
// where the feed must come first; split feeds put Σ occupancy within
// rounding of 1, the edge of the uncontended test. Every scenario runs
// once with probed UEs, which take the row kernel too: per UE the same
// telemetry, to the bit — a grant's PF metric included, which the row
// kernel computes against the EWMA before the subframe's update, floored
// at pfRateFloor, as pfGrant ranks by it.
func TestAdvancedCellMatchesTickedCell(t *testing.T) {
	frame := time.Second / 30
	var scenarios []advScenario
	for _, ues := range []int{1, 2, 4, 16} {
		for _, pkts := range []int{1, 4} {
			for _, stride := range []int{1, 10} {
				scenarios = append(scenarios, advScenario{ues: ues, pkts: pkts, period: frame, stride: stride, fault: ues == 4})
			}
		}
	}
	scenarios = append(scenarios,
		advScenario{ues: 4, pkts: 2, period: 20 * time.Millisecond, stride: 10},
		advScenario{ues: 3, pkts: 1, period: frame, stride: 1, split: true},
		advScenario{ues: 7, pkts: 1, period: frame, stride: 10, split: true},
	)
	for i := range scenarios {
		sc := scenarios[i]
		sc.probed = true
		scenarios = append(scenarios, sc)
	}
	for _, sc := range scenarios {
		name := fmt.Sprintf("ues-%d/pkts-%d/period-%v/stride-%d/fault-%v/split-%v", sc.ues, sc.pkts, sc.period, sc.stride, sc.fault, sc.split)
		if sc.probed {
			name += "/probed"
		}
		t.Run(name, func(t *testing.T) {
			want := playAdvScenario(t, sc, false)
			got := playAdvScenario(t, sc, true)
			if got.rowsOnly == 0 {
				t.Fatal("no advance ran row by row from its start")
			}
			if sc.pkts == 4 && sc.ues == 4 && got.switched == 0 {
				t.Fatal("no contended advance turned uncontended inside its stretch")
			}
			for k := range want.logs {
				if len(want.logs[k]) < 10 {
					t.Fatalf("ue %d: the ticked cell observed only %d things", k, len(want.logs[k]))
				}
				for i := 0; i < len(want.logs[k]) && i < len(got.logs[k]); i++ {
					if got.logs[k][i] != want.logs[k][i] {
						t.Fatalf("ue %d observation %d:\n advanced: %s\n   ticked: %s", k, i, got.logs[k][i], want.logs[k][i])
					}
				}
				if len(got.logs[k]) != len(want.logs[k]) {
					t.Fatalf("ue %d: advanced cell observed %d things, ticked cell %d", k, len(got.logs[k]), len(want.logs[k]))
				}
			}
			for i := range want.end {
				if got.end[i] != want.end[i] {
					t.Fatalf("end state:\n advanced: %s\n   ticked: %s", got.end[i], want.end[i])
				}
			}
			grants := 0
			for k := range want.events {
				for i := 0; i < len(want.events[k]) && i < len(got.events[k]); i++ {
					if got.events[k][i] != want.events[k][i] {
						t.Fatalf("ue %d event %d:\n advanced: %+v\n   ticked: %+v", k, i, got.events[k][i], want.events[k][i])
					}
					if want.events[k][i].Kind == obs.LTEGrant {
						grants++
					}
				}
				if len(got.events[k]) != len(want.events[k]) {
					t.Fatalf("ue %d: advanced cell emitted %d events, ticked cell %d", k, len(got.events[k]), len(want.events[k]))
				}
			}
			if sc.probed && grants == 0 {
				t.Fatal("probed UEs emitted no lte.grant")
			}
		})
	}
}

// A cell has one driver: Start after Advance panics, and so do Advance and
// DetachUE after Start.
func TestCellDriversExclusive(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	cfg := CellConfig{Profile: ProfileCampus, AlwaysPF: true}
	advanced, err := NewCell(simclock.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	advanced.Advance(5*time.Millisecond, true)
	mustPanic("Start on an advanced cell", advanced.Start)

	started, err := NewCell(simclock.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	u, err := started.AddUE(DefaultUEConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	started.Start()
	mustPanic("Advance on a started cell", func() { started.Advance(5*time.Millisecond, true) })
	mustPanic("DetachUE on a started cell", func() { started.DetachUE(u) })
}
