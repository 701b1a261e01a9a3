package lte

import (
	"errors"
	"fmt"
	"math"
	"time"

	"poi360/internal/fifo"
	"poi360/internal/obs"
	"poi360/internal/seeds"
	"poi360/internal/simclock"
)

// pfWindow is the averaging window of the proportional-fair scheduler's
// per-UE served-rate EWMA. LTE eNB implementations typically average over
// ~100 ms (a hundred 1 ms TTIs): long enough to smooth grant granularity,
// short enough that the scheduler reacts to a UE's buffer within a video
// frame interval.
const pfWindow = 100 * time.Millisecond

// pfAlpha is the EWMA's per-subframe weight.
const pfAlpha = float64(Subframe) / float64(pfWindow)

// grantProb is the legacy single-UE discipline's per-subframe probability
// of receiving a grant when the buffer is saturated (at or beyond the
// knee); it sets the UE's scheduling period (0.33 ≈ one grant opportunity
// per 3 ms, a typical uplink scheduling-request cadence). Each grant
// carries one scheduling period's worth of capacity, so the expected
// saturated rate is the cell capacity.
const grantProb = 0.33

// pfRateFloor (bits/s) bounds the PF metric's denominator so a newly
// admitted or long-idle UE has a large-but-finite priority, which is the
// standard newcomer boost of PF scheduling.
const pfRateFloor = 1e3

// CellConfig parameterizes a shared cell: the radio environment every
// attached UE contends for, plus the cell-wide scheduler knobs.
type CellConfig struct {
	// Profile sets the radio environment. Profile.Seed drives the cell's
	// stochastic capacity process; BackgroundLoad models *non-simulated*
	// competitors (other cells' interference, users outside the
	// experiment) — contention between attached UEs emerges from the PF
	// allocator instead.
	Profile CellProfile
	// CapacityFault, when non-nil, scales the instantaneous cell capacity
	// by its return value (scripted handover outages and capacity steps;
	// see internal/faults). It must be a pure function of the instant so
	// the simulation stays deterministic.
	CapacityFault func(now time.Duration) float64
	// AlwaysPF forces the proportional-fair discipline even while a single
	// UE is attached. Cells with a churning population (the multi-cell
	// network layer, where UEs hand over in and out) set this so the
	// scheduling discipline is a property of the cell, not of the instant
	// residency; the default keeps the legacy bit-exact stochastic path
	// for 1-UE cells.
	AlwaysPF bool
	// Src is the capacity process's generator; nil means
	// seeds.NewSource(Profile.Seed).
	Src *seeds.SplitMix
	// CapacityStride coarsens the capacity process to one step every
	// CapacityStride subframes (stepping by stride·1 ms, so OU drift,
	// burst and fade hazards cover the same wall time). 0 or 1 keeps the
	// per-subframe stepping of the session model. The city layer holds each
	// draw for 10 subframes: background load and busy bursts move on
	// 100 ms+ timescales, grants still draw against the held capacity
	// every subframe, and the per-subframe Norm/Uniform draws of several
	// hundred cells were a top-five row of the city CPU profile.
	CapacityStride int
}

// DefaultCellConfig returns the calibrated cell model for a profile.
func DefaultCellConfig(p CellProfile) CellConfig {
	return CellConfig{Profile: p}
}

// Validate reports an error for incoherent cell configurations.
func (c CellConfig) Validate() error {
	if c.Profile.BackgroundLoad < 0 || c.Profile.BackgroundLoad >= 1 {
		return fmt.Errorf("lte: BackgroundLoad must be in [0,1), got %g", c.Profile.BackgroundLoad)
	}
	if c.CapacityStride < 0 {
		return fmt.Errorf("lte: CapacityStride must be non-negative, got %d", c.CapacityStride)
	}
	return nil
}

// UEConfig parameterizes one UE's modem attached to a Cell.
type UEConfig struct {
	// BufferCapBytes drops packets beyond this occupancy (modem queue cap).
	BufferCapBytes int
	// Seed drives the UE's grant/TBS randomness.
	Seed int64
	// Src is the UE's grant/TBS generator; nil means seeds.NewSource(Seed).
	// The city layer reseeds one per UE slot for each residency: a
	// detached UE's row never draws again until the cell admits a UE into
	// it, with that UE's Src, so residencies cannot interleave streams.
	Src *seeds.SplitMix
	// DiagFault, when non-nil, suppresses the diagnostic report due at the
	// given instant when it returns true (a stalled chipset diag feed).
	DiagFault func(at time.Duration) bool
}

// DefaultUEConfig returns the calibrated modem model for one UE.
func DefaultUEConfig(seed int64) UEConfig {
	return UEConfig{
		BufferCapBytes: 512 * 1024,
		Seed:           seed,
	}
}

// Validate reports an error for incoherent UE configurations.
func (c UEConfig) Validate() error {
	if c.BufferCapBytes <= 0 {
		return fmt.Errorf("lte: BufferCapBytes must be positive, got %d", c.BufferCapBytes)
	}
	return nil
}

// Cell is one LTE cell whose uplink capacity is shared by the UEs admitted
// with AddUE. Create with NewCell, attach UEs, then drive it with Start (a
// 1 ms ticker; the population is then fixed) or Advance (the city's driver;
// UEs join and leave between calls), never both (DESIGN.md §15). An
// advanced cell with no attached UE sleeps: its advance is the capacity
// process and the subframe counter alone. Callbacks run on the driver's
// goroutine and read their subframe's instant from UE.Now.
//
// A UE is a row of the cell. DetachUE frees the row and the next AddUE
// reuses it — its *UE, its hot state and its firmware ring — so a cell
// holds no more rows than its peak concurrent population, however many
// UEs pass through it. Rows are scheduled in attach order.
//
// Scheduling disciplines:
//
//   - With exactly one row (one UE at a time) the cell keeps the
//     calibrated stochastic grant process of the original single-user
//     model: the grant *frequency* grows with the UE's own buffer
//     occupancy while contention is folded into the scalar
//     BackgroundLoad — bit-for-bit the legacy Uplink.
//   - With two or more rows each subframe runs a true proportional-fair
//     allocation: the PF metric of a UE is its instantaneous achievable
//     rate divided by its EWMA served rate, where the achievable rate is
//     buffer-aware as in the paper's Fig. 5 (capacity × min(1, B/knee) —
//     the eNB sizes grants to the reported BSR), and the subframe's
//     capacity is waterfilled over the UEs in metric order, best first.
//     Contention *emerges*: a UE that backlogs its firmware buffer scores
//     (and is granted) more, exactly the cross-layer property FBCC
//     exploits, while long-served UEs yield to starved ones through the
//     EWMA denominator.
type Cell struct {
	clk simclock.Scheduler
	cfg CellConfig
	rng *seeds.SplitMix

	ues   []*UE
	order []int // scratch: the backlogged rows of a PF subframe, attach order
	cap   capacityProcess
	// started and advanced record the driver: Start, or Advance.
	started, advanced bool
	// anchor is the clock time of NewCell: subframe k of an advanced cell
	// runs at anchor + k·Subframe.
	anchor time.Duration

	// active lists the attached rows in attach order: a reused row goes
	// to the back, behind every row attached before it. That order breaks
	// PF ties (pfGrant) and orders every row walk, so a cell that reuses a
	// row runs exactly as one that appended a fresh row would have.
	active []int32
	// free lists the detached rows, reused newest first by admit.
	free []int32

	// capStride/capCountdown implement CellConfig.CapacityStride: the
	// capacity process steps once every capStride subframes by the full
	// stride interval.
	capStride    int
	capCountdown int

	// sfIndex counts the subframes run; diagNext is the earliest subframe
	// index at which any active row's diag report is due, so the subframe
	// loop decides "any diag due?" with one comparison instead of walking
	// every row every millisecond.
	sfIndex  int64
	diagNext int64

	// bufTotal is the summed firmware-buffer occupancy of the active rows.
	// A multi-UE subframe with bufTotal == 0 has nothing to pick, grant or
	// serve — the only PF state that still moves is the served-rate EWMA
	// decay, which pfIdle defers (counted per idle subframe) and the next
	// pfGrant replays exactly. Between video frames most subframes are
	// idle, so the common case collapses to two counter updates.
	bufTotal int
	pfIdle   int32
	// pfPend marks that the last busy subframe's served-rate EWMA update
	// is still deferred (folded into the next pfGrant pass).
	pfPend bool
	// now is the instant of the subframe running, set once per subframe:
	// serve and emitDiag run only from the subframe path, and a cell serves
	// a grant or two every millisecond — the per-grant Scheduler interface
	// call was measurable at city scale.
	now time.Duration

	// soa holds the per-UE state the subframe loop touches every
	// millisecond, as parallel arrays indexed by UE id (structure-of-
	// arrays, DESIGN.md §14). The 30 000 subframes of a session then walk
	// a handful of dense slices instead of chasing N *UE pointers; the UE
	// struct keeps only the cold state (queue, config, counters).
	soa cellSoA
}

// cellSoA is the per-cell structure-of-arrays of UE hot state.
type cellSoA struct {
	buf       []int     // firmware-buffer occupancy, bytes
	diagLast  []int64   // sfIndex of the last diag report (or admission)
	diagEvery []int32   // diag period in subframes (never, once detached)
	diagTBS   []float64 // bits served since the last diag report
	ewma      []float64 // PF served-rate EWMA, bits/s
	pfMetric  []float64 // scratch: this subframe's PF metric
	pfAchiev  []float64 // scratch: this subframe's buffer-aware rate
	pfServed  []float64 // scratch: bits served this subframe
}

// grow appends one row's slots, for init to fill.
func (s *cellSoA) grow() {
	s.buf = append(s.buf, 0)
	s.diagLast = append(s.diagLast, 0)
	s.diagEvery = append(s.diagEvery, 0)
	s.diagTBS = append(s.diagTBS, 0)
	s.ewma = append(s.ewma, 0)
	s.pfMetric = append(s.pfMetric, 0)
	s.pfAchiev = append(s.pfAchiev, 0)
	s.pfServed = append(s.pfServed, 0)
}

// init gives row i a newcomer's state admitted at subframe sfIndex: empty
// buffer, no PF history, a diag period starting now.
func (s *cellSoA) init(i int, sfIndex int64) {
	s.buf[i] = 0
	s.diagLast[i] = sfIndex
	s.diagEvery[i] = int32(DefaultDiagPeriod / Subframe)
	s.diagTBS[i] = 0
	s.ewma[i] = 0
	s.pfMetric[i] = 0
	s.pfAchiev[i] = 0
	s.pfServed[i] = 0
}

// settle applies row i's deferred served-rate EWMA updates — the last busy
// subframe's, when pend, then k idle subframes' decay — replayed as the
// exact per-subframe updates, and returns the settled value.
func (s *cellSoA) settle(i int, pend bool, k int32) float64 {
	e := s.ewma[i]
	if pend {
		e += pfAlpha * (s.pfServed[i]*invSubframeSec - e)
		s.pfServed[i] = 0
	}
	for j := k; j > 0 && e != 0; j-- {
		e += pfAlpha * (0 - e)
	}
	s.ewma[i] = e
	return e
}

// NewCell builds a cell on clk. Attach UEs with AddUE.
func NewCell(clk simclock.Scheduler, cfg CellConfig) (*Cell, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := cfg.Src
	if rng == nil {
		rng = seeds.NewSource(cfg.Profile.Seed)
	}
	c := &Cell{
		clk:       clk,
		cfg:       cfg,
		rng:       rng,
		anchor:    clk.Now(),
		capStride: cfg.CapacityStride,
		diagNext:  math.MaxInt64,
	}
	if c.capStride < 1 {
		c.capStride = 1
	}
	c.cap.init(cfg.Profile, time.Duration(c.capStride)*Subframe)
	c.cap.fault = cfg.CapacityFault
	c.cap.recompute() // apply any scripted factor active at t=0
	return c, nil
}

// AddUE admits a UE to the cell. deliver (may be nil) is invoked for each
// of this UE's packets that finishes transmission over the air. On an
// advanced cell this is also the handover re-attach the city uses to move
// UEs between cells mid-simulation: the new UE starts with fresh PF/EWMA
// and diag state (a handed-over UE is a newcomer to the target scheduler)
// and joins the allocation from the next subframe the cell runs, so the
// caller advances the cell to the present first. The UE takes the row of
// the cell's most recently detached UE when there is one: the *UE returned
// may be a handle DetachUE was given, which then belongs to the new UE.
// A started cell refuses.
func (c *Cell) AddUE(cfg UEConfig, deliver func(Packet)) (*UE, error) {
	if c.started {
		return nil, errors.New("lte: AddUE after Start (a ticked cell admits its UEs before it starts)")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return c.admit(cfg, deliver), nil
}

// admit puts a UE in the cell's newest free row, or in a row appended when
// none is free, and makes it the last row of the attach order.
func (c *Cell) admit(cfg UEConfig, deliver func(Packet)) *UE {
	var u *UE
	if k := len(c.free) - 1; k >= 0 {
		u = c.ues[c.free[k]]
		c.free = c.free[:k]
	} else {
		// A video sender's backlog is tens of MTU-sized packets; start at
		// that scale so the steady state never regrows.
		u = &UE{id: len(c.ues), queue: fifo.New[Packet](32)}
		c.ues = append(c.ues, u)
		c.soa.grow()
		if cap(c.order) < len(c.ues) {
			c.order = append(c.order[:cap(c.order)], 0) // scratch: grow geometrically
		}
	}
	c.initRow(u, cfg, deliver)
	c.active = append(c.active, int32(u.id))
	if due := c.sfIndex + int64(c.soa.diagEvery[u.id]); due < c.diagNext || len(c.active) == 1 {
		c.diagNext = due
	}
	return u
}

// initRow makes row u a newly admitted UE drawing from its own stream,
// cfg.Src or one seeded from cfg.Seed: every field but the row's id and its
// (empty) firmware ring starts at its zero or admission value, whether the
// row was just appended or is reused.
func (c *Cell) initRow(u *UE, cfg UEConfig, deliver func(Packet)) {
	rng := cfg.Src
	if rng == nil {
		rng = seeds.NewSource(cfg.Seed)
	}
	*u = UE{cell: c, id: u.id, cfg: cfg, rng: rng, deliver: deliver, queue: u.queue}
	c.soa.init(u.id, c.sfIndex)
}

// DetachUE removes a UE from scheduling (handover detach): the firmware
// buffer is discarded (the bytes lost size the handover transfer), diag
// reports stop (the silence is what trips FBCC's staleness watchdog), and
// the row leaves the allocation. It returns the buffered bytes dropped.
// The row — the *UE, its hot state and its emptied firmware ring — goes on
// the cell's free list; re-attach means an AddUE on the target cell. The
// handle answers as a detached UE (refusing packets, keeping its served
// bits) until this cell's next AddUE, which may reuse the row: from then
// on the handle is the new UE's. A started cell panics.
func (c *Cell) DetachUE(u *UE) int {
	if c.started {
		panic("lte: DetachUE on a Cell driven by Start")
	}
	if u.cell != c || u.detached {
		return 0
	}
	u.detached = true
	dropped := c.soa.buf[u.id]
	c.soa.buf[u.id] = 0
	c.bufTotal -= dropped
	u.queue.Reset() // no payload stays reachable through the free row
	// Drop the row from the active list, order-preserving: the rows left
	// keep their attach order.
	for k, id := range c.active {
		if int(id) == u.id {
			copy(c.active[k:], c.active[k+1:])
			c.active = c.active[:len(c.active)-1]
			break
		}
	}
	c.free = append(c.free, int32(u.id))
	return dropped
}

// Start drives the cell by a 1 ms ticker of its clock. It must be called
// at most once, before running the clock, on a cell never advanced. A cell
// started with no UE never gets one, so it holds no ticker.
func (c *Cell) Start() {
	if c.started || c.advanced {
		panic("lte: Cell started twice, or after Advance")
	}
	c.started = true
	// Diag reports are emitted from the subframe loop itself so a report
	// at t covers exactly the subframes in (t−DefaultDiagPeriod, t].
	if len(c.active) > 0 {
		c.clk.Ticker(Subframe, func() { c.subframe(c.clk.Now()) })
	}
}

// Advance runs every subframe of the cell's grid (the clock time of
// NewCell plus k·Subframe, k ≥ 1) before to — or through to, if inclusive
// — that has not run yet; the caller's clock has passed them. Inside a
// call buffers only drain, so once the cell is uncontended the rest of the
// call runs row by row, and until then subframe by subframe. Rows run in
// any order: a delivery or diag callback may touch only its own UE's
// state, and a UE's telemetry comes in its own time order, not interleaved
// with its cell mates' by subframe. A started cell panics.
func (c *Cell) Advance(to time.Duration, inclusive bool) {
	if c.started {
		panic("lte: Advance on a Cell driven by Start")
	}
	c.advanced = true
	last := int64((to - c.anchor) / Subframe)
	if !inclusive && c.at(last) == to {
		last--
	}
	for c.sfIndex < last {
		if c.uncontended() {
			c.rows(last)
			return
		}
		c.subframe(c.at(c.sfIndex + 1))
	}
}

// at is the instant of an advanced cell's subframe sf.
func (c *Cell) at(sf int64) time.Duration { return c.anchor + time.Duration(sf)*Subframe }

// uncontended reports whether the rest of an advance may run row by row:
// the cell is on the PF discipline, and the backlogged rows' buffer-aware
// shares fit the subframe — at most one is backlogged, or Σ min(1, B/knee)
// sits a margin below 1 that the waterfill's float rounding cannot eat.
// Then pfGrant never clips a grant, whatever the metric order, and since
// buffers only drain inside an advance, the sum only falls. Probes do not
// matter: a probed row reports the metric pfGrant would have emitted.
func (c *Cell) uncontended() bool {
	if len(c.ues) == 1 && !c.cfg.AlwaysPF {
		return false
	}
	sum, n := 0.0, 0
	for _, id := range c.active {
		if b := c.soa.buf[id]; b > 0 {
			sum += occupancy(b)
			n++
		}
	}
	return n <= 1 || sum <= 1-1e-9
}

// rows runs subframes sfIndex+1 … last of an uncontended advance, held
// capacity by held capacity, one active row at a time (UE.run). It first
// applies the EWMA updates pfPend and pfIdle deferred, and leaves nothing
// deferred: the rows end settled.
func (c *Cell) rows(last int64) {
	for _, id := range c.active {
		c.soa.settle(int(id), c.pfPend, c.pfIdle)
	}
	c.pfPend, c.pfIdle = false, 0
	for c.sfIndex < last {
		if c.capCountdown == 0 {
			c.stepCapacity()
		}
		n := min(int64(c.capCountdown), last-c.sfIndex)
		for _, id := range c.active {
			c.ues[id].run(c.sfIndex+1, c.sfIndex+n)
		}
		c.capCountdown -= int(n)
		c.sfIndex += n
	}
	c.diagSweep() // the rows took their reports: this only recomputes diagNext
}

// run is one row's subframes from … to of rows, at the capacity they hold.
// Each subframe applies the served-rate EWMA update (an idle subframe's
// decay is the same update with 0 served) and, when the row is backlogged,
// draws the TBS noise from the row's own stream and serves its whole
// buffer-aware share — pfGrant's expression, which no waterfill clips
// here. A probed row's grant carries the PF metric pfGrant would have
// ranked it by, against the EWMA before this subframe's update. A diag
// report due in the row's own subframe is emitted there.
func (u *UE) run(from, to int64) {
	c := u.cell
	s := &c.soa
	i := u.id
	capNow := c.cap.current
	e := s.ewma[i]
	for sf := from; sf <= to; sf++ {
		c.now = c.at(sf)
		served := 0.0
		if b := s.buf[i]; b > 0 {
			ach := capNow * occupancy(b)
			if tbs := ach * subframeSec; tbs > 0 {
				metric := 0.0
				if u.probe != nil {
					t := e // pfGrant's max(ewma, floor), spelled as it is there
					if t < pfRateFloor {
						t = pfRateFloor
					}
					metric = ach / t
				}
				served = u.serve(tbs*u.tbsNoise(), metric)
			}
		}
		e += pfAlpha * (served*invSubframeSec - e)
		if sf >= s.diagLast[i]+int64(s.diagEvery[i]) {
			u.emitDiag(sf)
		}
	}
	s.ewma[i] = e
}

// subframe is the body of one subframe, for both drivers: step the
// capacity process when due, then allocate the subframe's grants under the
// discipline matching the cell's population. Per-row work only happens when
// a row can be affected: the diag sweep runs when the earliest report is
// due (one comparison against diagNext per subframe, with per-row
// "subframes covered" reconstructed from sfIndex − diagLast), and a
// backlog-free PF cell defers its EWMA decay (see bufTotal/pfIdle) — so the
// common idle subframe costs a few counter updates regardless of
// population.
func (c *Cell) subframe(now time.Duration) {
	if c.capCountdown == 0 {
		c.stepCapacity()
	}
	c.capCountdown--
	c.sfIndex++
	c.now = now
	if len(c.ues) == 1 && !c.cfg.AlwaysPF {
		if !c.ues[0].detached {
			c.stochasticGrant(c.ues[0])
		}
	} else if len(c.active) >= 1 {
		if c.bufTotal == 0 {
			c.pfIdle++
		} else {
			c.pfGrant()
		}
	}
	if c.sfIndex >= c.diagNext && len(c.active) > 0 {
		c.diagSweep()
	}
}

// occupancy is min(1, B/knee): the buffer-aware share of a PF row.
func occupancy(b int) float64 {
	if occ := float64(b) * invKnee; occ < 1 {
		return occ
	}
	return 1
}

// stepCapacity draws the capacity the next capStride subframes hold.
func (c *Cell) stepCapacity() {
	c.cap.step(c.rng)
	c.capCountdown = c.capStride
}

// diagSweep emits every due diag report and recomputes the next due
// instant. Runs once per DefaultDiagPeriod per cell (not per subframe).
func (c *Cell) diagSweep() {
	s := &c.soa
	next := int64(math.MaxInt64)
	for _, id := range c.active {
		i := int(id)
		due := s.diagLast[i] + int64(s.diagEvery[i])
		if c.sfIndex >= due {
			c.ues[i].emitDiag(c.sfIndex)
			due = s.diagLast[i] + int64(s.diagEvery[i])
		}
		if due < next {
			next = due
		}
	}
	c.diagNext = next
}

// stochasticGrant is the legacy single-UE discipline: the grant frequency
// grows with the UE's own buffer occupancy (larger BSR → scheduled more
// often), while each grant carries a roughly fixed transport block sized
// so that a saturated buffer yields the full cell capacity. This keeps the
// Fig. 5 mean relation (rate ≈ cap·min(1, B/knee)) while letting a single
// grant drain a small buffer to exactly empty — the behaviour behind
// Fig. 6's 40%-empty observation. Cell-internal contention is modeled by
// the scalar BackgroundLoad of the capacity process.
func (c *Cell) stochasticGrant(u *UE) {
	buf := c.soa.buf[u.id]
	if buf == 0 {
		return
	}
	occupancy := float64(buf) / bufferKneeBytes
	if occupancy > 1 {
		occupancy = 1
	}
	if u.rng.Float64() <= grantProb*occupancy {
		tbsBits := c.cap.current * subframeSec / grantProb
		tbsBits *= u.tbsNoise()
		u.serve(tbsBits, 0)
	}
}

// pfGrant is the true multi-UE discipline: one proportional-fair
// allocation per subframe.
//
//	metric_i = r_i / max(T_i, floor)
//	r_i      = capacity · min(1, B_i/knee)     (buffer-aware, Fig. 5)
//	T_i      = EWMA of the served rate over pfWindow
//
// The subframe's transport capacity is waterfilled over the backlogged UEs
// in metric order (ties to the earlier-attached row, so the allocation is
// deterministic): each UE takes at most its buffer-aware share r_i·1ms, the
// remainder flows to the next best UE. Granted TBS carries the same
// multiplicative noise as the legacy discipline.
func (c *Cell) pfGrant() {
	// One fused pass over the active rows does three jobs: it settles each
	// row's EWMA (the served-rate update the cell's *previous* busy
	// subframe deferred via pfPend, then any idle-subframe decay deferred
	// via pfIdle — replayed as the exact per-subframe updates, so values
	// are bit-identical to running the bookkeeping loop every subframe),
	// computes the PF metric against the settled value, lists the
	// backlogged rows and picks the best of them. The classic shape —
	// metric pass, waterfill, then a separate EWMA pass — walked every row
	// twice per subframe.
	s := &c.soa
	k := c.pfIdle
	c.pfIdle = 0
	pend := c.pfPend
	capNow := c.cap.current
	// The list writes into c.order's full backing array (capacity kept
	// ≥ len(ues) by admit) with an explicit count, sidestepping append's
	// per-entry capacity check in the hottest loop of the simulation.
	ord := c.order[:cap(c.order)]
	met := s.pfMetric
	n, w, best := 0, 0, 0.0 // w: position in ord of the best row
	for _, id := range c.active {
		i := int(id)
		e := s.settle(i, pend, k)
		b := s.buf[i]
		if b == 0 {
			continue
		}
		ach := capNow * occupancy(b)
		s.pfAchiev[i] = ach
		// max(ewma, floor) spelled as a comparison: math.Max is not
		// intrinsified on every target and its NaN/±0 handling is dead
		// weight here (ewma is a finite non-negative EWMA).
		if e < pfRateFloor {
			e = pfRateFloor
		}
		m := ach / e
		met[i] = m
		// Strict >: rows come in attach order, so the earliest-attached
		// row wins a tie.
		if n == 0 || m > best {
			w, best = n, m
		}
		ord[n] = i
		n++
	}
	c.pfPend = true

	// Waterfill in metric order by selection, not by sorting: in
	// saturation (occupancy ≥ knee) the first grant takes the whole
	// subframe, so the next best is looked for only while capacity is left.
	remaining := capNow * subframeSec // bits this subframe
	for n > 0 && remaining > 0 {
		if w < 0 { // the next best of the rows left
			w = 0
			for q := 1; q < n; q++ {
				if met[ord[q]] > met[ord[w]] {
					w = q
				}
			}
		}
		idx := ord[w]
		u := c.ues[idx]
		tbs := s.pfAchiev[idx] * subframeSec
		if remaining < tbs {
			tbs = remaining
		}
		if tbs > 0 {
			remaining -= tbs
			s.pfServed[idx] = u.serve(tbs*u.tbsNoise(), met[idx])
		}
		// Order-preserving removal keeps ord in attach order for the
		// tie-break of the next selection. The shift is a manual loop:
		// copy would call memmove even for the empty shift of the last row.
		n--
		for q := w; q < n; q++ {
			ord[q] = ord[q+1]
		}
		w = -1
	}
}

// tbsNoise draws a grant's multiplicative TBS noise from the UE's stream.
func (u *UE) tbsNoise() float64 {
	noise := 1 + u.rng.NormFloat64()*tbsNoise
	if noise < 0.1 {
		noise = 0.1
	}
	return noise
}

// invSubframeSec turns the per-subframe bits→bits/s conversion into a
// multiply in the EWMA update (runs per active row per backlogged subframe).
var invSubframeSec = 1 / subframeSec

// UE is one user equipment attached to a Cell: the firmware buffer, the
// grant/TBS randomness, and the per-UE diagnostic interface. Obtain UEs
// from Cell.AddUE (or via the legacy Uplink wrapper).
type UE struct {
	cell    *Cell
	id      int
	cfg     UEConfig
	rng     *seeds.SplitMix
	deliver func(Packet)
	onDiag  func(DiagReport)

	// Firmware buffer: FIFO with partial-packet service. Occupancy in
	// bytes lives in the cell's SoA (cell.soa.buf[id]), as do the diag
	// accumulators and PF scheduler state the subframe loop reads.
	queue      fifo.Queue[Packet]
	headServed int     // bytes of the front packet already transmitted
	credit     float64 // fractional bytes of grant not yet applied
	dropped    int64
	detached   bool // handed over away; excluded from scheduling and diag

	diagStalled int64 // reports suppressed by a scripted DiagFault

	// Running statistics.
	totalServedBits float64

	// probe, when non-nil, receives this UE's telemetry (lte.grant,
	// lte.diag, lte.drop). Probes only observe (internal/obs).
	probe *obs.Probe
}

// SetProbe installs this UE's telemetry probe (nil disables). The
// transport layer wires it when a session enables observability.
func (u *UE) SetProbe(p *obs.Probe) { u.probe = p }

// Now is the instant of the subframe the UE's cell is running: inside a
// delivery or diag callback, when the packet cleared the air or the report
// was taken. An advanced cell runs its subframes after its clock has passed
// them, so there the clock's Now is later.
func (u *UE) Now() time.Duration { return u.cell.now }

// SetDiagListener registers the consumer of this UE's 40 ms diagnostic
// reports (FBCC's input). Only one listener is supported; later calls
// replace it.
func (u *UE) SetDiagListener(fn func(DiagReport)) { u.onDiag = fn }

// Enqueue appends a packet to the firmware buffer. It reports false (and
// counts a drop) when the modem queue cap would be exceeded, or when the
// UE has been detached (a radio that is gone accepts nothing).
func (u *UE) Enqueue(p Packet) bool {
	if u.detached {
		u.dropped++
		return false
	}
	buf := &u.cell.soa.buf[u.id]
	if *buf+p.Bytes > u.cfg.BufferCapBytes {
		u.dropped++
		u.probe.Emit(u.cell.clk.Now(), obs.LTEDrop, float64(p.Bytes), float64(*buf), 0, 0)
		return false
	}
	u.queue.Push(p)
	*buf += p.Bytes
	u.cell.bufTotal += p.Bytes
	return true
}

// BufferBytes reports the instantaneous firmware-buffer occupancy.
func (u *UE) BufferBytes() int { return u.cell.soa.buf[u.id] }

// TotalServedBits reports the cumulative bits transmitted over the air.
func (u *UE) TotalServedBits() float64 { return u.totalServedBits }

// DiagStalled reports how many diagnostic reports a scripted DiagFault has
// suppressed so far.
func (u *UE) DiagStalled() int64 { return u.diagStalled }

// serve transmits up to tbsBits from the head of the firmware buffer,
// delivering packets whose last byte goes out this subframe, and reports
// the grant, with the PF metric that won it, to the UE's probe. It returns
// the bits actually served (at most tbsBits, less when the buffer drains).
func (u *UE) serve(tbsBits, metric float64) float64 {
	// Fractional grant bytes accumulate as credit so that tiny service
	// rates (near-empty buffer) still drain the queue instead of being
	// floored away subframe after subframe.
	u.credit += tbsBits / 8
	bytes := int(u.credit)
	if bytes <= 0 {
		return 0
	}
	u.credit -= float64(bytes)
	s := &u.cell.soa
	buf := s.buf[u.id]
	if bytes > buf {
		bytes = buf
	}
	served := float64(bytes) * 8
	s.diagTBS[u.id] += served
	u.totalServedBits += served
	buf -= bytes
	s.buf[u.id] = buf
	u.cell.bufTotal -= bytes
	// Telemetry: one event per actual grant service — served bits, the
	// buffer left behind, and the PF metric that won the subframe (0 under
	// the legacy single-UE stochastic discipline).
	u.probe.Emit(u.cell.now, obs.LTEGrant, served, float64(buf), metric, 0)
	for bytes > 0 && u.queue.Len() > 0 {
		remaining := u.queue.Front().Bytes - u.headServed
		if bytes < remaining {
			u.headServed += bytes
			break
		}
		bytes -= remaining
		done := u.queue.Pop()
		u.headServed = 0
		if u.deliver != nil {
			u.deliver(done)
		}
	}
	// A drained buffer forfeits leftover fractional grant bytes: the credit
	// models sub-byte remainders of grants actually spent on queued data,
	// and carrying it across an idle gap would inflate the first grant of
	// the next busy period with bytes from a grant long expired.
	if buf == 0 {
		u.credit = 0
	}
	return served
}

// emitDiag takes the row's diag report at subframe sf, whose instant is
// the cell's now.
func (u *UE) emitDiag(sf int64) {
	s := &u.cell.soa
	rep := DiagReport{
		At:          u.cell.now,
		BufferBytes: s.buf[u.id],
		SumTBSBits:  s.diagTBS[u.id],
		Subframes:   int(sf - s.diagLast[u.id]),
	}
	s.diagTBS[u.id] = 0
	s.diagLast[u.id] = sf
	stalled := u.cfg.DiagFault != nil && u.cfg.DiagFault(rep.At)
	if u.probe != nil {
		flag := 0.0
		if stalled {
			flag = 1
		}
		u.probe.Emit(rep.At, obs.LTEDiag, float64(rep.BufferBytes), rep.SumTBSBits, float64(rep.Subframes), flag)
	}
	if stalled {
		u.diagStalled++
		return
	}
	if u.onDiag != nil {
		u.onDiag(rep)
	}
}
