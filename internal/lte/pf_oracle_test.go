package lte

import (
	"math"
	"sort"
	"testing"
	"time"

	"poi360/internal/obs"
	"poi360/internal/seeds"
	"poi360/internal/simclock"
)

// pfOracle is a naive proportional-fair cell, the reference Cell.pfGrant
// must equal grant for grant. It updates every row's served-rate EWMA every
// subframe (no pfIdle/pfPend deferral), sorts the backlogged rows by
// (metric descending, id ascending) with a full stable sort and waterfills
// down the sorted list. It shares with Cell only the capacity process and
// the per-UE generator seeds; its firmware queue is a plain FIFO of its own.
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

// pfGrantRec is one grant: the subframe index, the UE and the bits served.
type pfGrantRec struct {
	sf   int64
	ue   int
	bits float64
}

type pfDelivery struct {
	ue int
	id int64
}

func newPFOracle(cfg CellConfig, ueSeeds []int64) *pfOracle {
	o := &pfOracle{rng: seeds.NewSource(cfg.Profile.Seed), stride: max(cfg.CapacityStride, 1)}
	o.cap.init(cfg.Profile, time.Duration(o.stride)*Subframe)
	o.cap.fault = cfg.CapacityFault
	o.cap.recompute()
	for _, s := range ueSeeds {
		o.ues = append(o.ues, &oracleUE{rng: seeds.NewSource(s)})
	}
	return o
}

func (o *pfOracle) enqueue(i int, p Packet) {
	u := o.ues[i]
	if u.detached || u.buf+p.Bytes > DefaultUEConfig(0).BufferCapBytes {
		return
	}
	u.queue = append(u.queue, p)
	u.buf += p.Bytes
}

func (o *pfOracle) detach(i int) {
	o.ues[i] = &oracleUE{detached: true}
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

// pfOp is one step of a scenario's tape, applied half a subframe after
// subframe sf: an enqueue of bytes on ue, or its detach.
type pfOp struct {
	sf     int64
	ue     int
	bytes  int
	id     int64
	detach bool
}

type pfScenario struct {
	name      string
	cfg       CellConfig
	ues       int
	subframes int64
	tape      []pfOp
}

func (sc pfScenario) ueSeed(i int) int64 { return int64(7000 + 31*i) }

// runPFCell plays the scenario on a production Cell on Start's ticker
// (tickFromTest: the tapes detach mid-run) and returns its grants (read off
// the lte.grant telemetry) and deliveries.
func runPFCell(t *testing.T, sc pfScenario) ([]pfGrantRec, []pfDelivery) {
	t.Helper()
	clk := simclock.New()
	cell, err := NewCell(clk, sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	var delivered []pfDelivery
	ues := make([]*UE, sc.ues)
	for i := range ues {
		i := i
		if ues[i], err = cell.AddUE(DefaultUEConfig(sc.ueSeed(i)), func(p Packet) {
			delivered = append(delivered, pfDelivery{i, p.ID})
		}); err != nil {
			t.Fatal(err)
		}
		ues[i].SetProbe(bus.Probe(int32(i)))
	}
	tickFromTest(cell)
	for _, op := range sc.tape {
		op := op
		clk.Schedule(time.Duration(op.sf)*Subframe+Subframe/2, func() {
			if op.detach {
				cell.DetachUE(ues[op.ue])
			} else {
				ues[op.ue].Enqueue(Packet{ID: op.id, Bytes: op.bytes})
			}
		})
	}
	clk.Run(time.Duration(sc.subframes) * Subframe)
	var grants []pfGrantRec
	for _, e := range bus.Events() {
		if e.Kind == obs.LTEGrant {
			grants = append(grants, pfGrantRec{int64(e.At / Subframe), int(e.Sub), e.A})
		}
	}
	return grants, delivered
}

// runPFOracle plays the scenario on the reference.
func runPFOracle(sc pfScenario) *pfOracle {
	seedsOf := make([]int64, sc.ues)
	for i := range seedsOf {
		seedsOf[i] = sc.ueSeed(i)
	}
	o := newPFOracle(sc.cfg, seedsOf)
	k := 0
	apply := func(sf int64) {
		for ; k < len(sc.tape) && sc.tape[k].sf == sf; k++ {
			if op := sc.tape[k]; op.detach {
				o.detach(op.ue)
			} else {
				o.enqueue(op.ue, Packet{ID: op.id, Bytes: op.bytes})
			}
		}
	}
	apply(0)
	for sf := int64(1); sf <= sc.subframes; sf++ {
		o.subframe(sf)
		apply(sf)
	}
	return o
}

// lightTape offers n UEs about 90 % of the cell's base capacity in
// randomly sized packets, so buffers mostly stay below the knee and the
// waterfill reaches a second and third UE.
func lightTape(seed uint64, n int, subframes int64, prof CellProfile) []pfOp {
	rng := seeds.NewSource(int64(seed))
	meanBytes := 0.9 * BaseCapacity(prof.RSSdBm) * subframeSec / 8 / float64(n) * 4
	var tape []pfOp
	id := int64(0)
	for sf := int64(0); sf < subframes; sf++ {
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.25 {
				id++
				tape = append(tape, pfOp{sf: sf, ue: i, bytes: 1 + int(meanBytes*(0.5+rng.Float64())), id: id})
			}
		}
	}
	return tape
}

// TestPFGrantMatchesNaiveOracle holds the production PF cell — deferred
// EWMA, winner picked in the fused pass, next best selected only while
// capacity is left — to the naive sort-and-waterfill reference: the same
// grant sequence (subframe, UE, bits) and the same delivery order.
func TestPFGrantMatchesNaiveOracle(t *testing.T) {
	cityCfg := func(stride int) CellConfig {
		cfg := DefaultCellConfig(ProfileCampus)
		cfg.Profile.Seed = 11
		cfg.AlwaysPF = true
		cfg.CapacityStride = stride
		return cfg
	}
	var scenarios []pfScenario
	for n := 1; n <= 16; n++ {
		const sfs = 3000
		scenarios = append(scenarios, pfScenario{
			name: "light", cfg: cityCfg(n % 2 * 10), ues: n, subframes: sfs,
			tape: lightTape(uint64(n), n, sfs, ProfileCampus),
		})
	}
	// Identical UEs admitted together and fed identical bursts a second
	// apart: every burst starts with their EWMAs below the floor, so the
	// metrics tie exactly and the lowest id must win.
	ties := pfScenario{name: "ties", cfg: cityCfg(0), ues: 8, subframes: 5000}
	for sf, id := int64(0), int64(0); sf < ties.subframes; sf += 1200 {
		for i := 0; i < ties.ues; i++ {
			id++
			ties.tape = append(ties.tape, pfOp{sf: sf, ue: i, bytes: 3000, id: id})
		}
	}
	// A scripted outage at factor 0 over backlogged UEs, then a detach of
	// two backlogged UEs mid-run.
	faulted := pfScenario{name: "fault+detach", cfg: cityCfg(0), ues: 6, subframes: 4000,
		tape: lightTape(99, 6, 4000, ProfileCampus)}
	faulted.cfg.CapacityFault = func(now time.Duration) float64 {
		if now >= time.Second && now < 1300*time.Millisecond {
			return 0
		}
		return 1
	}
	faulted.tape = append(faulted.tape, pfOp{sf: 1500, ue: 2, detach: true}, pfOp{sf: 2200, ue: 5, detach: true})
	sort.SliceStable(faulted.tape, func(a, b int) bool { return faulted.tape[a].sf < faulted.tape[b].sf })
	scenarios = append(scenarios, ties, faulted)

	var deep, tied, dead int
	for _, sc := range scenarios {
		o := runPFOracle(sc)
		grants, delivered := runPFCell(t, sc)
		if len(o.grants) == 0 {
			t.Fatalf("%s/%d UEs: the oracle granted nothing", sc.name, sc.ues)
		}
		if len(grants) != len(o.grants) {
			t.Errorf("%s/%d UEs: cell made %d grants, oracle %d", sc.name, sc.ues, len(grants), len(o.grants))
		}
		for i := range min(len(grants), len(o.grants)) {
			if grants[i] != o.grants[i] {
				t.Fatalf("%s/%d UEs: grant %d is %+v, oracle %+v", sc.name, sc.ues, i, grants[i], o.grants[i])
			}
		}
		if len(delivered) != len(o.delivered) {
			t.Errorf("%s/%d UEs: cell delivered %d packets, oracle %d", sc.name, sc.ues, len(delivered), len(o.delivered))
		}
		for i := range min(len(delivered), len(o.delivered)) {
			if delivered[i] != o.delivered[i] {
				t.Fatalf("%s/%d UEs: delivery %d is %+v, oracle %+v", sc.name, sc.ues, i, delivered[i], o.delivered[i])
			}
		}
		deep += o.deep
		tied += o.ties
		dead += o.dead
	}
	t.Logf("subframes granting ≥ 3 UEs %d, with a tie at the top %d, backlogged at zero capacity %d", deep, tied, dead)
	if deep == 0 || tied == 0 || dead == 0 {
		t.Fatal("the scenarios no longer reach a third UE, an exact tie or a dead subframe")
	}
}
