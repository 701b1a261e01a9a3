package lte

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"poi360/internal/obs"
	"poi360/internal/seeds"
	"poi360/internal/simclock"
)

// The cell's differential harness. A tape (cellTape) of attaches,
// detaches, enqueues and capacity reads is played (playTape) on a
// production cell driven one of three ways — Start's 1 ms ticker, the same
// ticker without Start's refusal of AddUE and DetachUE (tickFromTest), or
// Advance, as the city drives its cells — and on a naive PF cell (pfOracle). Runs are
// compared up to their first divergence (diffRuns, firstDiff).

const (
	ms = time.Millisecond
	us = time.Microsecond
)

// tickFromTest puts c on the ticker Start registers, without Start's
// refusal of AddUE and DetachUE: the reference for an advanced cell.
func tickFromTest(c *Cell) {
	c.clk.Ticker(Subframe, func() { c.subframe(c.clk.Now()) })
}

type drive int

const (
	ticked   drive = iota // tickFromTest
	started               // Start, after the tape's attaches at instant 0
	advanced              // Advance before every op and to the end
)

// cellOp is one step of a tape at instant at: attach the next residency
// ('a'), detach residency r ('d'), enqueue n packets on r ('e') or read the
// capacity ('c'). The packets are bytes long, or 200 + id·37 mod 1000 when
// bytes is 0; ids number every packet of the tape, refused ones included.
// An op applies after the subframe its instant lands on, as the city's
// barrier does, or before it when pre is set, as the city's endpoint tick
// does: an advanced cell then runs to the instant exclusive of it.
type cellOp struct {
	at          time.Duration
	kind        byte
	r, n, bytes int
	pre         bool
}

// cellTape is a cell configuration, its ops in time order and its end.
// Residency r draws from seeds.NewSource(seed(r)). A probed tape gives
// every residency a telemetry probe. A fresh tape holds every admitted UE
// to the first row of a fresh cell (rowState) and the cell's rows to the
// peak population.
type cellTape struct {
	name          string
	cfg           CellConfig
	ops           []cellOp
	end           time.Duration
	seed          func(r int) int64
	probed, fresh bool
}

// cellRun is what one way of driving made of a tape: per residency its deliveries
// and diag reports with their instants, then its end state (logs), and its
// telemetry (events); detaches and capacity reads in tape order (log);
// grants and deliveries in the order they happened. On an advanced cell,
// rowsOnly counts the advances that started uncontended and switched those
// that turned uncontended inside; reused counts admits into a freed row.
type cellRun struct {
	logs                       [][]string
	events                     [][]obs.Event
	log                        []string
	grants                     []pfGrantRec
	delivered                  []pfDelivery
	rowsOnly, switched, reused int
}

// pfGrantRec is one grant: the subframe index, the residency and the bits.
type pfGrantRec struct {
	sf   int64
	ue   int
	bits float64
}

type pfDelivery struct {
	ue int
	id int64
}

func newCell(t testing.TB, clk *simclock.Clock, cfg CellConfig) *Cell {
	t.Helper()
	c, err := NewCell(clk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func addUE(t testing.TB, c *Cell, cfg UEConfig, deliver func(Packet)) *UE {
	t.Helper()
	u, err := c.AddUE(cfg, deliver)
	if err != nil {
		t.Fatal(err)
	}
	return u
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
	rng                          seeds.SplitMix
}

func stateOf(c *Cell, u *UE) rowState {
	s, i := &c.soa, u.id
	return rowState{
		buf: s.buf[i], diagAge: c.sfIndex - s.diagLast[i], diagEvery: s.diagEvery[i],
		diagTBS: s.diagTBS[i], ewma: s.ewma[i],
		pfMetric: s.pfMetric[i], pfAchiev: s.pfAchiev[i], pfServed: s.pfServed[i],
		credit: u.credit, headServed: u.headServed, totalServedBits: u.totalServedBits,
		dropped: u.dropped, diagStalled: u.diagStalled, detached: u.detached,
		queued: u.queue.Len(), probe: u.probe, listener: u.onDiag != nil, rng: *u.rng,
	}
}

// playTape plays tp on a production cell driven by drv. A residency's end
// state is read at its detach, before the cell may hand its row on.
func playTape(t *testing.T, tp cellTape, drv drive) *cellRun {
	t.Helper()
	clk := simclock.New()
	cell := newCell(t, clk, tp.cfg)
	bus := obs.NewBus()
	run := &cellRun{}
	var ues []*UE // by residency, nil once detached
	live, peak := 0, 0
	endState := func(r int) {
		u := ues[r]
		run.logs[r] = append(run.logs[r], fmt.Sprintf("end buf %d ewma %v credit %v served %v dropped %d",
			cell.soa.buf[u.id], settledEWMA(cell, u.id), u.credit, u.TotalServedBits(), u.dropped))
	}
	id := int64(0)
	apply := func(op cellOp) {
		switch op.kind {
		case 'a':
			r, rows := len(ues), len(cell.ues)
			run.logs = append(run.logs, nil)
			var u *UE
			u = addUE(t, cell, DefaultUEConfig(tp.seed(r)), func(p Packet) {
				run.logs[r] = append(run.logs[r], fmt.Sprintf("deliver %d at %v", p.ID, u.Now()))
				run.delivered = append(run.delivered, pfDelivery{r, p.ID})
			})
			live++
			peak = max(peak, live)
			if tp.fresh {
				fc := newCell(t, simclock.New(), tp.cfg)
				if got, want := stateOf(cell, u), stateOf(fc, addUE(t, fc, DefaultUEConfig(tp.seed(r)), nil)); got != want {
					t.Fatalf("residency %d in row %d starts as\n %+v\nwant a fresh row's\n %+v", r, u.id, got, want)
				}
				if len(cell.ues) > peak {
					t.Fatalf("residency %d: the cell holds %d rows for a peak population of %d", r, len(cell.ues), peak)
				}
			}
			if len(cell.ues) == rows {
				run.reused++
			}
			if tp.probed {
				u.SetProbe(bus.Probe(int32(r)))
			}
			u.SetDiagListener(func(rep DiagReport) {
				run.logs[r] = append(run.logs[r], fmt.Sprintf("diag %+v credit %v", rep, u.credit))
			})
			ues = append(ues, u)
		case 'd':
			run.log = append(run.log, fmt.Sprintf("detach r%d at %v dropped %d", op.r, op.at, cell.DetachUE(ues[op.r])))
			endState(op.r)
			ues[op.r] = nil
			live--
		case 'e':
			for range op.n {
				id++
				bytes := op.bytes
				if bytes == 0 {
					bytes = 200 + int(id*37%1000)
				}
				if op.r < len(ues) && ues[op.r] != nil {
					ues[op.r].Enqueue(Packet{ID: id, Bytes: bytes})
				}
			}
		case 'c':
			run.log = append(run.log, fmt.Sprintf("capacity at %v = %v", op.at, cell.cap.current))
		}
	}
	catchUp := func(to time.Duration, inclusive bool) {
		if drv != advanced {
			return
		}
		before := cell.uncontended()
		cell.Advance(to, inclusive)
		switch {
		case before:
			run.rowsOnly++
		case cell.uncontended():
			run.switched++
		}
	}
	ops := tp.ops
	switch drv {
	case ticked:
		tickFromTest(cell)
	case started:
		for len(ops) > 0 && ops[0].at == 0 && ops[0].kind == 'a' {
			apply(ops[0])
			ops = ops[1:]
		}
		cell.Start()
	}
	for _, op := range ops {
		if op.pre {
			clk.Schedule(op.at, func() {
				catchUp(clk.Now(), false)
				apply(op)
			})
		}
	}
	for _, op := range ops {
		if !op.pre {
			clk.Run(op.at)
			catchUp(op.at, true)
			apply(op)
		}
	}
	clk.Run(tp.end)
	if drv == advanced {
		cell.Advance(tp.end, true)
	}
	for r, u := range ues {
		if u != nil {
			endState(r)
		}
	}
	run.log = append(run.log, fmt.Sprintf("capacity at end = %v", cell.cap.current))
	run.events = make([][]obs.Event, len(ues))
	for _, e := range bus.Events() {
		run.events[e.Sub] = append(run.events[e.Sub], e)
		if e.Kind == obs.LTEGrant {
			run.grants = append(run.grants, pfGrantRec{int64(e.At / Subframe), int(e.Sub), e.A})
		}
	}
	return run
}

// firstDiff fails t at the first element where got and want differ, or
// on their lengths.
func firstDiff[T comparable](t *testing.T, what string, got, want []T) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s %d:\n got %+v\nwant %+v", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d of them, want %d", what, len(got), len(want))
	}
}

// diffRuns compares two runs of one tape, driven two ways: per residency, since an
// advance may run rows in any order.
func diffRuns(t *testing.T, got, want *cellRun) {
	t.Helper()
	firstDiff(t, "residencies", []int{len(got.logs)}, []int{len(want.logs)})
	for r := range want.logs {
		firstDiff(t, fmt.Sprintf("residency %d observation", r), got.logs[r], want.logs[r])
		firstDiff(t, fmt.Sprintf("residency %d event", r), got.events[r], want.events[r])
	}
	firstDiff(t, "observation", got.log, want.log)
}

// window is a capacity fault of factor f on [from, until), 1 elsewhere.
func window(from, until time.Duration, f float64) func(time.Duration) float64 {
	return func(now time.Duration) float64 {
		if now >= from && now < until {
			return f
		}
		return 1
	}
}

// pfOracle is a naive proportional-fair cell, the reference Cell.pfGrant
// must equal grant for grant. It updates every row's served-rate EWMA every
// subframe (no pfIdle/pfPend deferral), sorts the backlogged rows by
// (metric descending, attach order ascending) with a full stable sort and
// waterfills down the sorted list. It never reuses a row: a UE's index is
// its attach order. It shares with Cell only the capacity process and the
// per-UE generator seeds; its firmware queue is a plain FIFO of its own.
type pfOracle struct {
	cap       capacityProcess
	rng       *seeds.SplitMix
	stride    int
	countdown int
	ues       []*oracleUE
	grants    []pfGrantRec
	delivered []pfDelivery
	// Coverage tallies: subframes whose waterfill granted three rows or
	// more, whose two best rows tied exactly, and which had backlog but no
	// capacity.
	deep, ties, dead int
}

type oracleUE struct {
	rng        *seeds.SplitMix
	queue      []Packet
	buf        int
	headServed int
	credit     float64
	ewma       float64
	detached   bool
}

// runPFOracle plays a tape of attaches, detaches and one-packet enqueues
// placed half a subframe after subframe at/Subframe on the reference.
func runPFOracle(tp cellTape) *pfOracle {
	o := &pfOracle{rng: seeds.NewSource(tp.cfg.Profile.Seed), stride: max(tp.cfg.CapacityStride, 1)}
	o.cap.init(tp.cfg.Profile, time.Duration(o.stride)*Subframe)
	o.cap.fault = tp.cfg.CapacityFault
	o.cap.recompute()
	k, id := 0, int64(0)
	for sf := int64(0); sf <= int64(tp.end/Subframe); sf++ {
		if sf > 0 {
			o.subframe(sf)
		}
		for ; k < len(tp.ops) && int64(tp.ops[k].at/Subframe) == sf; k++ {
			switch op := tp.ops[k]; op.kind {
			case 'a':
				o.ues = append(o.ues, &oracleUE{rng: seeds.NewSource(tp.seed(len(o.ues)))})
			case 'd':
				o.ues[op.r] = &oracleUE{detached: true}
			case 'e':
				id++
				if op.r >= len(o.ues) {
					continue
				}
				if u := o.ues[op.r]; !u.detached && u.buf+op.bytes <= DefaultUEConfig(0).BufferCapBytes {
					u.queue = append(u.queue, Packet{ID: id, Bytes: op.bytes})
					u.buf += op.bytes
				}
			}
		}
	}
	return o
}

// subframe runs subframe sf: capacity step, metric, sort, waterfill, then
// every attached row's EWMA.
func (o *pfOracle) subframe(sf int64) {
	if o.countdown == 0 {
		o.cap.step(o.rng)
		o.countdown = o.stride
	}
	o.countdown--
	capNow := o.cap.current
	type row struct {
		id          int
		metric, ach float64
	}
	var rows []row
	for i, u := range o.ues {
		if u.detached || u.buf == 0 {
			continue
		}
		ach := capNow * math.Min(1, float64(u.buf)*invKnee)
		rows = append(rows, row{i, ach / math.Max(u.ewma, pfRateFloor), ach})
	}
	sort.SliceStable(rows, func(a, b int) bool {
		if rows[a].metric != rows[b].metric {
			return rows[a].metric > rows[b].metric
		}
		return rows[a].id < rows[b].id
	})
	if len(rows) >= 2 && rows[0].metric == rows[1].metric {
		o.ties++
	}
	if len(rows) > 0 && capNow == 0 {
		o.dead++
	}
	served := make([]float64, len(o.ues))
	remaining, granted := capNow*subframeSec, 0
	for _, r := range rows {
		if remaining <= 0 {
			break
		}
		tbs := math.Min(r.ach*subframeSec, remaining)
		if tbs <= 0 {
			continue
		}
		remaining -= tbs
		noise := math.Max(0.1, 1+o.ues[r.id].rng.NormFloat64()*tbsNoise)
		served[r.id] = o.serve(sf, r.id, tbs*noise)
		granted++
	}
	if granted >= 3 {
		o.deep++
	}
	alpha := float64(Subframe) / float64(pfWindow)
	for i, u := range o.ues {
		if !u.detached {
			u.ewma += alpha * (served[i]*invSubframeSec - u.ewma)
		}
	}
}

// serve transmits up to tbsBits from the head of UE i's queue, carrying
// fractional bytes as credit, and returns the bits served.
func (o *pfOracle) serve(sf int64, i int, tbsBits float64) float64 {
	u := o.ues[i]
	u.credit += tbsBits / 8
	bytes := int(u.credit)
	if bytes <= 0 {
		return 0
	}
	u.credit -= float64(bytes)
	bytes = min(bytes, u.buf)
	u.buf -= bytes
	served := float64(bytes) * 8
	o.grants = append(o.grants, pfGrantRec{sf, i, served})
	for bytes > 0 && len(u.queue) > 0 {
		rest := u.queue[0].Bytes - u.headServed
		if bytes < rest {
			u.headServed += bytes
			break
		}
		bytes -= rest
		o.delivered = append(o.delivered, pfDelivery{i, u.queue[0].ID})
		u.queue = u.queue[1:]
		u.headServed = 0
	}
	if u.buf == 0 {
		u.credit = 0
	}
	return served
}

// pfTape is a city-configured cell (AlwaysPF) with n UEs attached at the
// start, residency r on seed 7000 + 31r, and one-packet enqueues.
func pfTape(name string, n int, stride int, sfs int64) cellTape {
	cfg := DefaultCellConfig(ProfileCampus)
	cfg.Profile.Seed = 11
	cfg.AlwaysPF = true
	cfg.CapacityStride = stride
	tp := cellTape{name: fmt.Sprintf("%s/%d-ues", name, n), cfg: cfg, end: time.Duration(sfs) * Subframe,
		seed: func(r int) int64 { return int64(7000 + 31*r) }, probed: true}
	for range n {
		tp.ops = append(tp.ops, cellOp{kind: 'a'})
	}
	return tp
}

// pfOp places op half a subframe after subframe sf, as an endpoint tick.
func pfOp(sf int64, kind byte, r, bytes int) cellOp {
	return cellOp{at: time.Duration(sf)*Subframe + Subframe/2, kind: kind, r: r, n: 1, bytes: bytes, pre: true}
}

// lightTape offers n UEs about 90 % of the cell's base capacity in
// randomly sized packets, so buffers mostly stay below the knee and the
// waterfill reaches a second and third UE.
func lightTape(seed uint64, n int, subframes int64) []cellOp {
	rng := seeds.NewSource(int64(seed))
	meanBytes := 0.9 * BaseCapacity(ProfileCampus.RSSdBm) * subframeSec / 8 / float64(n) * 4
	var ops []cellOp
	for sf := int64(0); sf < subframes; sf++ {
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.25 {
				ops = append(ops, pfOp(sf, 'e', i, 1+int(meanBytes*(0.5+rng.Float64()))))
			}
		}
	}
	return ops
}

// TestPFGrantMatchesNaiveOracle holds the production PF cell — deferred
// EWMA, winner picked in the fused pass, next best selected only while
// capacity is left — to the naive sort-and-waterfill reference: the same
// grant sequence (subframe, UE, bits) and the same delivery order on the
// ticked cell; the started cell (where no UE comes or goes) and the
// advanced one must then match the ticked cell.
func TestPFGrantMatchesNaiveOracle(t *testing.T) {
	var tapes []cellTape
	for n := 1; n <= 16; n++ {
		tp := pfTape("light", n, n%2*10, 3000)
		tapes = append(tapes, tp)
		tapes[len(tapes)-1].ops = append(tp.ops, lightTape(uint64(n), n, 3000)...)
	}
	// Identical UEs admitted together and fed identical bursts a second
	// apart: every burst starts with their EWMAs below the floor, so the
	// metrics tie exactly and the lowest id must win.
	ties := pfTape("ties", 8, 0, 5000)
	for sf := int64(0); sf < 5000; sf += 1200 {
		for i := 0; i < 8; i++ {
			ties.ops = append(ties.ops, pfOp(sf, 'e', i, 3000))
		}
	}
	// The same, and after 100 subframes UE 0 leaves and UE 8 takes its row:
	// the newest arrival, it must lose every tie to the rows before it.
	reties := pfTape("ties+reattach", 8, 0, 5000)
	reties.ops = append(reties.ops, pfOp(100, 'd', 0, 0), pfOp(100, 'a', 0, 0))
	for sf := int64(1200); sf < 5000; sf += 1200 {
		for i := 1; i <= 8; i++ {
			reties.ops = append(reties.ops, pfOp(sf, 'e', i, 3000))
		}
	}
	// A scripted outage at factor 0 over backlogged UEs, then a detach of
	// two backlogged UEs mid-run, each followed by an attach into its row
	// (UEs 6 and 7, whose packets the tape offers from the start).
	faulted := pfTape("fault+detach", 6, 0, 4000)
	faulted.cfg.CapacityFault = window(time.Second, 1300*ms, 0)
	faulted.ops = append(faulted.ops, pfOp(1500, 'd', 2, 0), pfOp(1700, 'a', 0, 0), pfOp(2200, 'd', 5, 0), pfOp(2200, 'a', 0, 0))
	faulted.ops = append(faulted.ops, lightTape(99, 8, 4000)...)
	slices.SortStableFunc(faulted.ops, func(a, b cellOp) int { return int(a.at - b.at) })
	tapes = append(tapes, ties, reties, faulted)

	var deep, tied, dead int
	for _, tp := range tapes {
		t.Run(tp.name, func(t *testing.T) {
			o := runPFOracle(tp)
			if len(o.grants) == 0 {
				t.Fatal("the oracle granted nothing")
			}
			want := playTape(t, tp, ticked)
			firstDiff(t, "grant", want.grants, o.grants)
			firstDiff(t, "delivery", want.delivered, o.delivered)
			if !slices.ContainsFunc(tp.ops, func(op cellOp) bool { return op.kind != 'e' && op.at > 0 }) {
				got := playTape(t, tp, started)
				firstDiff(t, "started grant", got.grants, want.grants)
				diffRuns(t, got, want)
			}
			diffRuns(t, playTape(t, tp, advanced), want)
			deep += o.deep
			tied += o.ties
			dead += o.dead
		})
	}
	t.Logf("subframes granting ≥ 3 UEs %d, with a tie at the top %d, backlogged at zero capacity %d", deep, tied, dead)
	if deep == 0 || tied == 0 || dead == 0 {
		t.Fatal("the tapes no longer reach a third UE, an exact tie or a dead subframe")
	}
}

// advTape is a feed of TestAdvancedCellMatchesTickedCell, every op an
// endpoint tick: ues UEs join 400.3 ms into the run (the cell is empty
// until then); each feed every period enqueues pkts packets per UE — the
// last of several UEs only every sixteenth feed unless the feed is split,
// so that its buffer runs dry and it idles with a served rate to decay;
// split feeds fill the UEs to one knee together (Σ occupancy is 1 up to
// the rounding of each share). UE 0 leaves at 1.7003 s and a fresh UE
// joins at 2.2003 s, in UE 0's row.
func advTape(ues, pkts int, period time.Duration, stride int, fault, split, probed bool) cellTape {
	prof := ProfileCampus
	prof.Seed = 41
	tp := cellTape{
		name: fmt.Sprintf("ues-%d/pkts-%d/period-%v/stride-%d/fault-%v/split-%v/probed-%v", ues, pkts, period, stride, fault, split, probed),
		cfg:  CellConfig{Profile: prof, AlwaysPF: true, CapacityStride: stride}, end: 3 * time.Second,
		seed: func(r int) int64 { return int64(500 + r) }, probed: probed,
	}
	if fault {
		tp.cfg.CapacityFault = window(900*ms, 1300*ms, 0)
	}
	events := []time.Duration{400*ms + 300*us, 1700*ms + 300*us, 2200*ms + 300*us}
	var live []bool // by residency
	for feed := 1; ; feed++ {
		at := time.Duration(feed) * period
		for len(events) > 0 && events[0] <= at {
			switch len(events) {
			case 3:
				for range ues {
					tp.ops = append(tp.ops, cellOp{at: events[0], kind: 'a', pre: true})
					live = append(live, true)
				}
			case 2:
				tp.ops = append(tp.ops, cellOp{at: events[0], kind: 'd', pre: true})
				live[0] = false
			case 1:
				tp.ops = append(tp.ops, cellOp{at: events[0], kind: 'a', pre: true})
				live = append(live, true)
			}
			events = events[1:]
		}
		if at > tp.end {
			return tp
		}
		for r := range live {
			if !live[r] || r == len(live)-1 && r > 0 && !split && feed%16 != 0 {
				continue
			}
			bytes := 0
			if split {
				bytes = bufferKneeBytes / len(live)
				if r == 0 {
					bytes += bufferKneeBytes % len(live)
				}
			}
			tp.ops = append(tp.ops, cellOp{at: at, kind: 'e', r: r, n: pkts, bytes: bytes, pre: true})
		}
	}
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
	for _, probed := range []bool{false, true} {
		type feed struct {
			tp       cellTape
			switches bool // heavy feeds on four UEs turn uncontended mid-advance
		}
		var feeds []feed
		for _, ues := range []int{1, 2, 4, 16} {
			for _, pkts := range []int{1, 4} {
				for _, stride := range []int{1, 10} {
					feeds = append(feeds, feed{advTape(ues, pkts, frame, stride, ues == 4, false, probed), ues == 4 && pkts == 4})
				}
			}
		}
		feeds = append(feeds,
			feed{tp: advTape(4, 2, 20*ms, 10, false, false, probed)},
			feed{tp: advTape(3, 1, frame, 1, false, true, probed)},
			feed{tp: advTape(7, 1, frame, 10, false, true, probed)})
		for _, f := range feeds {
			t.Run(f.tp.name, func(t *testing.T) {
				want, got := playTape(t, f.tp, ticked), playTape(t, f.tp, advanced)
				if got.rowsOnly == 0 {
					t.Fatal("no advance ran row by row from its start")
				}
				if f.switches && got.switched == 0 {
					t.Fatal("no contended advance turned uncontended inside its stretch")
				}
				for r, l := range want.logs {
					if len(l) < 10 {
						t.Fatalf("residency %d: the ticked cell observed only %d things", r, len(l))
					}
				}
				diffRuns(t, got, want)
				if probed && len(want.grants) == 0 {
					t.Fatal("probed UEs emitted no lte.grant")
				}
			})
		}
	}
}

// sleepTape is a tape of TestSleepingCellMatchesTickingCell: a busy cell
// on a moving UE population (fades and outages draw from the cell's
// stream too), ops applied at the city's barrier.
func sleepTape(name string, ops []cellOp) cellTape {
	prof := ProfileBusy
	prof.SpeedMph = 30
	prof.Seed = 77
	return cellTape{name: name, cfg: CellConfig{Profile: prof, AlwaysPF: true}, ops: ops, end: 12 * time.Second,
		seed: func(r int) int64 { return int64(1000 + r) }}
}

// randomSleepTape draws ops over three slots whose population keeps
// returning to zero. Most instants sit on the subframe grid (barriers do);
// some do not. It reports how many attaches found the cell empty.
func randomSleepTape(seed int64, end time.Duration) (ops []cellOp, wakes int) {
	rng := rand.New(rand.NewSource(seed))
	var slots [3]int // residency + 1, 0 when free
	pop, residencies := 0, 0
	var at time.Duration
	for {
		at += time.Duration(1+rng.Intn(150)) * Subframe
		if rng.Intn(8) == 0 {
			at += time.Duration(rng.Intn(int(Subframe)))
		}
		if at >= end {
			return ops, wakes
		}
		slot := rng.Intn(len(slots))
		switch r := rng.Intn(10); {
		case r < 2:
			ops = append(ops, cellOp{at: at, kind: 'c'})
		case slots[slot] == 0 && (r < 5 || pop == 0):
			if pop == 0 {
				wakes++
			}
			pop++
			residencies++
			slots[slot] = residencies
			ops = append(ops, cellOp{at: at, kind: 'a'}, cellOp{at: at, kind: 'e', r: residencies - 1, n: 1 + rng.Intn(30)})
		case slots[slot] != 0 && r < 7:
			pop--
			ops = append(ops, cellOp{at: at, kind: 'd', r: slots[slot] - 1})
			slots[slot] = 0
		case slots[slot] != 0:
			ops = append(ops, cellOp{at: at, kind: 'e', r: slots[slot] - 1, n: 1 + rng.Intn(40)})
		}
	}
}

// TestSleepingCellMatchesTickingCell: an advanced cell with no attached UE
// sleeps — it holds no ticker, and its advance through the empty stretch is
// the capacity process and the subframe counter alone. The tapes empty the
// cell, refill it, and admit, detach and read it around and between
// subframes, the way the city's barrier and endpoint tick do; the advanced
// cell must observe what the ticked one does.
func TestSleepingCellMatchesTickingCell(t *testing.T) {
	op := func(at time.Duration, kind byte, r, n int) cellOp { return cellOp{at: at, kind: kind, r: r, n: n} }
	tapes := []cellTape{
		// The last UE detaches and another attaches at the same instant.
		sleepTape("handoff-same-instant", []cellOp{
			op(0, 'a', 0, 0), op(0, 'e', 0, 20), op(700*ms, 'd', 0, 0), op(700*ms, 'a', 0, 0), op(700*ms, 'e', 1, 20),
			op(900*ms, 'd', 1, 0), op(2*time.Second, 'c', 0, 0)}),
		// The cell slept the whole run so far: empty from the start, joined late.
		sleepTape("wake-after-sleeping-since-start", []cellOp{
			op(4321*ms, 'a', 0, 0), op(4321*ms, 'e', 0, 60), op(4400*ms, 'e', 0, 60)}),
		// Between two subframes the cell admits and loses UEs, is read
		// asleep, and is joined again.
		sleepTape("off-grid-around-a-sleep", []cellOp{
			op(0, 'a', 0, 0), op(10*ms+400*us, 'a', 0, 0), op(10*ms+400*us, 'e', 1, 30), op(10*ms+700*us, 'd', 0, 0),
			op(300*ms+900*us, 'd', 1, 0), op(2000*ms+100*us, 'c', 0, 0), op(2001*ms, 'a', 0, 0), op(2001*ms, 'e', 2, 30)}),
		// A sleeping cell read repeatedly, then joined and left.
		sleepTape("capacity-reads-while-asleep", []cellOp{
			op(ms, 'c', 0, 0), op(1500*ms, 'c', 0, 0), op(1500*ms, 'c', 0, 0), op(3999*ms+1, 'c', 0, 0),
			op(6*time.Second, 'a', 0, 0), op(6*time.Second, 'e', 0, 10), op(6100*ms, 'd', 0, 0), op(9*time.Second, 'c', 0, 0)}),
	}
	for seed := int64(1); seed <= 6; seed++ {
		ops, wakes := randomSleepTape(seed, 12*time.Second)
		if wakes < 3 {
			t.Fatalf("random tape %d wakes the cell %d times; fix the generator", seed, wakes)
		}
		tapes = append(tapes, sleepTape(fmt.Sprintf("random-%d", seed), ops))
	}
	for _, tp := range tapes {
		for _, stride := range []int{1, 10} {
			for _, faulted := range []bool{false, true} {
				tp := tp
				tp.cfg.CapacityStride = stride
				if faulted {
					tp.cfg.CapacityFault = window(3*time.Second, 5*time.Second, 0.3)
				}
				t.Run(fmt.Sprintf("%s/stride-%d/fault-%v", tp.name, stride, faulted), func(t *testing.T) {
					want := playTape(t, tp, ticked)
					if n := len(want.log) + len(slices.Concat(want.logs...)); n < 3 {
						t.Fatalf("the ticked cell observed only %d things", n)
					}
					diffRuns(t, playTape(t, tp, advanced), want)
				})
			}
		}
	}
}

// TestRowReuseMatchesFreshRow cycles a city cell through 10 000
// detach/admit pairs at a population of at most 4, its UEs fed, probed and
// listened to between the pairs. The cell never holds more than 4 rows,
// every admitted UE — in a reused row almost always — starts in exactly the
// state of the first row of a fresh cell, on its own generator, and the
// advanced cell observes what the ticked one does.
func TestRowReuseMatchesFreshRow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tp := cellTape{cfg: CellConfig{Profile: ProfileCampus, AlwaysPF: true, CapacityStride: 10},
		seed: func(r int) int64 { return int64(r) }, probed: true, fresh: true}
	live, next := []int{}, 0
	admit := func() {
		live = append(live, next)
		next++
		tp.ops = append(tp.ops, cellOp{at: tp.end, kind: 'a'})
	}
	for range 4 {
		admit()
	}
	for pairs := 0; pairs < 10000; {
		for _, r := range live {
			for range rng.Intn(4) {
				tp.ops = append(tp.ops, cellOp{at: tp.end, kind: 'e', r: r, n: 1, bytes: 100 + rng.Intn(1400)})
			}
		}
		tp.end += time.Duration(1+rng.Intn(60)) * Subframe
		// Detach one or two UEs, let the cell run without them, and
		// admit as many: the pairs empty the free list newest first.
		n := min(1+rng.Intn(2), len(live))
		for range n {
			k := rng.Intn(len(live))
			tp.ops = append(tp.ops, cellOp{at: tp.end, kind: 'd', r: live[k]})
			live = slices.Delete(live, k, k+1)
		}
		tp.end += time.Duration(rng.Intn(3)) * Subframe
		for range n {
			admit()
		}
		pairs += n
	}
	got := playTape(t, tp, advanced)
	if residencies := len(got.logs); got.reused < residencies-8 {
		t.Fatalf("only %d of %d residencies reused a row", got.reused, residencies)
	}
	if len(got.grants) < 10000 {
		t.Fatalf("the residencies were granted only %d times", len(got.grants))
	}
	diffRuns(t, got, playTape(t, tp, ticked))
}
