// Package network is the deterministic multi-cell city layer: hundreds of
// lte.Cell shards × thousands of UEs in one simulation, with emergent
// handover driven by mobility traces instead of scripted faults.
//
// # Shard/merge discipline
//
// Each cell is one record, its shard: its own simclock event heap, one
// lte.Cell, the UE endpoints currently resident on it, its radio telemetry
// bus and its fairness sums. Each UE is one record too, its current
// residency included (resident cell, modem row). A shard's clock holds one
// ticker, the endpoints' frame tick; the cell holds none, and the shard
// advances it (lte.Cell.Advance) up to each frame tick and through each
// barrier. A single-threaded coordinator visits a barrier every 10 ms and
// processes it in UE-id order (mobility decisions, handover
// starts/completions, obs emission). Shards interact only there, so a
// shard's clock runs on demand: the coordinator brings a shard to barrier
// T — alone or with helper goroutines draining an atomic cursor over that
// barrier's due list — only if something at T is about to touch it: a
// handover detaching from it, retiring from it or attaching to it, the
// per-barrier flush of its telemetry bus, or the end of the run. An
// untouched shard lags and later covers the gap in one clock run.
// Because each UE's entire state is touched only by events on its resident
// shard's clock between barriers, and only by the coordinator (which alone
// moves residencies and folds fairness sums) at barriers, when a shard runs
// cannot show in the report, which is byte-identical at any Workers value —
// the same ordered-fold discipline as the experiment engine's runGrid.
//
// A shard nobody resides on is never due — not even at the end of the run
// — and a due shard's empty cell is advanced by its capacity step: one
// held-capacity stretch at a time, with no per-subframe work (see
// lte.Cell.Advance). The run's cost follows the population and its
// handovers, not the grid (DESIGN.md §15).
//
// # Handover state machine
//
// A UE's mobility trace (deterministic grid walk, exponential dwell) picks
// a new cell; at the next boundary the coordinator detaches it from the
// serving cell (lte.Cell.DetachUE discards the firmware buffer), sizing an
// outage window handoverBase + dropped·8/transferRate. The UE stays
// *resident on the old shard* during the outage with its sender/receiver
// tickers running — so an FBCC sender keeps evaluating CheckWatchdog
// against a now-silent diag feed and degrades to its embedded GCC exactly
// as §4.3.2 prescribes, an emergent watchdog trip rather than a scripted
// DiagStall. At the first boundary past the outage the coordinator retires
// the old residency (the UE leaves the old shard's resident list) and
// re-attaches on the target cell — in the modem row the cell's latest
// departure freed, or a new one — with fresh PF/EWMA state and fresh
// per-residency seeds from seeds.Grid(base, cell, ue, attachSeq). Diag
// reports resume within one lte.DefaultDiagPeriod and OnDiag clears the
// degradation — the recovery the Result counts.
//
// # UE endpoints
//
// Endpoints are deliberately lighter than session.Session (no tiles, no
// head motion, no PSNR): a frame ticker captures rv·Δt bits per interval,
// packetizes at the RTP MTU into an application queue drained at the
// pacing rate into the lte firmware buffer; delivered frames arrive after
// the core path delay and feed the *real* ratecontrol.GCCReceiver, whose
// rate returns after the reverse delay; FBCC UEs run the *real*
// ratecontrol.FBCC on the modem diag feed. What the city table needs —
// throughput, Jain fairness, freeze ratios, handover outages, watchdog
// degradations/recoveries — all emerges from the genuine controllers and
// the genuine PF scheduler.
package network

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"poi360/internal/lte"
	"poi360/internal/metrics"
	"poi360/internal/obs"
	"poi360/internal/seeds"
	"poi360/internal/simclock"
)

// The city's core path is netsim.CellularPath, cut down: forward frames
// cross the core after its CoreBase plus folded-normal jitter of
// CoreJitterStd; receiver rate feedback returns after a fixed RevBase
// (reverse jitter and both paths' spikes are second-order for the rate
// loop and omitted — the session layer models them in full).
const (
	// capacityStride is how many subframes a city cell holds one draw of
	// its fading/capacity process: the OU correlation time (≈200 ms for
	// the campus profile) is far longer than 10 ms, so the coarser step
	// loses nothing the PF scheduler can see, and removes a Gaussian draw
	// per cell per subframe from the hot path.
	capacityStride = 10

	// maxBacklogBytes caps the application send queue; a frame captured
	// against a fuller backlog is dropped at capture (the real encoder
	// would have skipped it), bounding queue growth during outages.
	maxBacklogBytes = 256 * 1024

	// epoch is the barrier spacing, a multiple of the LTE subframe: the
	// grid on which handovers start and complete.
	epoch = 10 * time.Millisecond
	// frameInterval is the capture cadence: one 30 fps frame.
	frameInterval = time.Second / 30
	// handoverBase is the fixed part of the handover outage — longer than
	// the FBCC watchdog's 5×40 ms timeout, so an FBCC sender in handover
	// always trips it.
	handoverBase = 250 * time.Millisecond
	// transferRate converts the firmware-buffer bytes discarded at detach
	// into extra outage time: a 2 Mbit/s X2 transfer.
	transferRate = 2e6
)

// RC selects a UE population's rate controller.
type RC uint8

// Rate controllers.
const (
	RCFBCC RC = iota // POI360's FBCC (§4.3) over the modem diag feed
	RCGCC            // plain end-to-end GCC baseline
)

func (rc RC) String() string {
	if rc == RCFBCC {
		return "fbcc"
	}
	return "gcc"
}

// Mixes of rate controllers across the UE population.
const (
	MixSplit = "split" // even ids FBCC, odd ids GCC (the comparison mix)
	MixFBCC  = "fbcc"
	MixGCC   = "gcc"
)

// Config describes one city simulation. The zero value is not runnable;
// Cells, UEs and Duration are required.
type Config struct {
	// Cells is the number of cell shards, laid out on a ⌈√C⌉-wide grid.
	Cells int
	// UEs is the total UE population, spread over the grid by the
	// per-UE mobility stream.
	UEs int
	// Duration is the simulated session length.
	Duration time.Duration
	// Seed is the base seed; every stream derives from it through
	// seeds.Grid + seeds.Stream. Same (Config) ⇒ same Result bytes.
	Seed int64
	// MeanDwell is the mean of the exponential cell dwell time; 0 keeps
	// every UE static (no mobility, no handover).
	MeanDwell time.Duration
	// Workers is how many goroutines advance a barrier's due shards: the
	// coordinator plus Workers−1 helpers, which wait by yielding and park
	// after about a millisecond without a barrier (0 = GOMAXPROCS, 1 = no
	// goroutine started). Any value yields byte-identical results.
	Workers int
	// Mix assigns rate controllers (MixSplit default).
	Mix string
	// Obs, when non-nil, receives NetAttach/NetDetach/NetHandover
	// events. Only the single-threaded coordinator emits (shards run
	// concurrently), so instrumentation cannot perturb the trajectory
	// and the event stream is deterministic. A caller that set the bus
	// spilling (Bus.SpillTo — conventionally shard -1) gets it flushed and
	// synced at every epoch barrier alongside the radio shards.
	Obs *obs.Bus

	// Agg, when non-nil, turns on per-cell radio telemetry (lte.grant /
	// lte.diag / lte.drop from every residency) aggregated streamingly:
	// each cell shard gets a private retention-free bus bound to the
	// aggregate under its cell index, so counters, histograms and episode
	// stats accumulate without ever materializing the event stream.
	// Aggregates are byte-identical at any Workers (ShardAgg merges in
	// shard-id order).
	Agg *obs.ShardAgg

	// Sink, when non-nil, streams the per-cell radio telemetry (and, when
	// Obs spills to the same sink, the coordinator stream) to a binary
	// .pbt writer: every shard's pending buffer is flushed at each epoch
	// barrier, single-threaded, in shard-id order, and the sink is synced
	// once after the sweep — the file bytes are identical at any Workers
	// and memory stays bounded by one epoch's emissions per shard.
	Sink *obs.BinWriter
}

// warmup is the startup transient excluded from frame/throughput stats.
func (c Config) warmup() time.Duration { return min(2*time.Second, c.Duration/4) }

// radio reports whether the cells get radio telemetry buses.
func (c Config) radio() bool { return c.Agg != nil || c.Sink != nil }

func (c Config) withDefaults() Config {
	if c.Mix == "" {
		c.Mix = MixSplit
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Validate reports an error for incoherent configurations (after
// defaulting).
func (c Config) Validate() error {
	if c.Cells < 1 {
		return fmt.Errorf("network: Cells must be ≥ 1, got %d", c.Cells)
	}
	if c.UEs < 1 {
		return fmt.Errorf("network: UEs must be ≥ 1, got %d", c.UEs)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("network: Duration must be positive, got %v", c.Duration)
	}
	if c.MeanDwell < 0 {
		return fmt.Errorf("network: MeanDwell must be non-negative, got %v", c.MeanDwell)
	}
	if c.Mix != MixSplit && c.Mix != MixFBCC && c.Mix != MixGCC {
		return fmt.Errorf("network: unknown Mix %q", c.Mix)
	}
	return nil
}

// UEStats is one UE's city-run measurements. Frame counters cover
// captures at or after Warmup.
type UEStats struct {
	ID        int
	RC        RC
	HomeCell  int // initial attachment
	FinalCell int // mobility-trace cell at the end
	Moves     int // trace steps that changed cell
	Handovers int // completed re-attachments
	// OutageTotal sums the detach→re-attach windows (boundary-quantized).
	OutageTotal time.Duration
	// Degradations / Recoveries count FBCC watchdog trips and the
	// subsequent diag-resume recoveries (0 for GCC UEs).
	Degradations int
	Recoveries   int

	FramesSent      int
	FramesDelivered int
	FramesFrozen    int // delivered with delay > metrics.FreezeThreshold
	BitsDelivered   float64
	DelaySum        time.Duration // over delivered frames
}

// FramesLost is the frames captured but never displayed (handover flush,
// firmware-buffer drops, still in flight at the end).
func (s UEStats) FramesLost() int { return s.FramesSent - s.FramesDelivered }

// FreezeRatio is the paper's §6 fraction: (lost + frozen) / sent.
func (s UEStats) FreezeRatio() float64 {
	if s.FramesSent == 0 {
		return 0
	}
	return float64(s.FramesLost()+s.FramesFrozen) / float64(s.FramesSent)
}

// Result is one finished city run.
type Result struct {
	Cells     int
	UEs       int
	Duration  time.Duration
	Warmup    time.Duration
	MeanDwell time.Duration

	PerUE []UEStats // by UE id

	// PerCellJain is Jain's index over the radio-served bits of every
	// residency the cell hosted (cells that never hosted one score 1,
	// the degenerate-allocation convention of metrics.JainFairness).
	PerCellJain []float64
	// JainGlobal is Jain's index over per-UE delivered bits.
	JainGlobal float64

	Handovers     int
	OutageMean    time.Duration // over completed handovers
	Degradations  int
	Recoveries    int
	FreezeFBCC    float64 // population freeze ratio, FBCC UEs
	FreezeGCC     float64 // population freeze ratio, GCC UEs
	ThroughputBps float64 // aggregate delivered bits over the measured window

	// occupied marks cells that hosted at least one residency, so
	// MeanPerCellJain can skip never-used grid slots.
	occupied []bool
}

// MeanPerCellJain averages PerCellJain over cells that hosted at least
// one residency; 1 if none did.
func (r *Result) MeanPerCellJain() float64 {
	sum, n := 0.0, 0
	for c, j := range r.PerCellJain {
		if r.occupied[c] {
			sum += j
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// Fingerprint renders every field of the result deterministically — the
// byte-identity tests compare fingerprints across Workers values.
func (r *Result) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cells=%d ues=%d dur=%v warmup=%v dwell=%v\n", r.Cells, r.UEs, r.Duration, r.Warmup, r.MeanDwell)
	fmt.Fprintf(&b, "handovers=%d outage_mean=%v degr=%d recov=%d\n", r.Handovers, r.OutageMean, r.Degradations, r.Recoveries)
	fmt.Fprintf(&b, "freeze_fbcc=%.9f freeze_gcc=%.9f jain=%.9f tput=%.6f\n", r.FreezeFBCC, r.FreezeGCC, r.JainGlobal, r.ThroughputBps)
	for c, j := range r.PerCellJain {
		fmt.Fprintf(&b, "cell %d jain=%.9f occ=%v\n", c, j, r.occupied[c])
	}
	for _, u := range r.PerUE {
		fmt.Fprintf(&b, "ue %d rc=%s home=%d final=%d moves=%d ho=%d outage=%v degr=%d recov=%d sent=%d deliv=%d frozen=%d bits=%.3f delay=%v\n",
			u.ID, u.RC, u.HomeCell, u.FinalCell, u.Moves, u.Handovers, u.OutageTotal,
			u.Degradations, u.Recoveries, u.FramesSent, u.FramesDelivered, u.FramesFrozen,
			u.BitsDelivered, u.DelaySum)
	}
	return b.String()
}

// shard is one cell's record: its event domain (its own clock and its
// lte.Cell), its radio telemetry bus, and its fairness tally. residents is
// the shard's endpoint engine: the UEs currently living on this cell,
// ticked in attach order by one shard-level ticker — replacing two heap
// tickers per UE with a single periodic that sweeps a contiguous slice.
// That ticker is the only one on the shard's clock: the cell is advanced,
// not ticked.
type shard struct {
	clk       *simclock.Clock
	cell      *lte.Cell
	residents []*ue // live residencies, mutated only at barriers
	// radio is the cell's private telemetry bus (nil unless Config.Agg or
	// Config.Sink enabled it), touched only by the shard's advance and by
	// the coordinator at barriers — the shard's own isolation discipline.
	radio *obs.Bus
	// residencies, servedSum and servedSq fold in each residency the cell
	// hosted — its radio-served bits, taken from the modem row at detach
	// (the cell may hand the row to its next arrival) or by finalize — for
	// per-cell fairness (metrics.JainFromSums). Served bits are whole
	// bytes, so the sums are exact in any order, detach order included,
	// while servedSq stays below 2^59.
	residencies         int
	servedSum, servedSq float64
	// dueAt is the last barrier whose due list holds this shard (touch).
	dueAt time.Duration
}

// tickResidents is the shard's endpoint tick: one pass over the resident
// UEs per frame interval. The list is mutated only by the coordinator at
// barriers, so the sweep never observes a concurrent change. The cell runs
// its subframes before this instant first (a tied one comes after).
func (sh *shard) tickResidents() {
	now := sh.clk.Now()
	sh.cell.Advance(now, false)
	for _, u := range sh.residents {
		u.tick(now)
	}
}

// tally folds one residency's radio-served bits into the fairness sums.
func (sh *shard) tally(link *lte.UE) {
	bits := link.TotalServedBits()
	sh.residencies++
	sh.servedSum += bits
	sh.servedSq += bits * bits
}

// run brings the shard to the barrier at end: its clock, then its cell
// through end, before the fold attaches or detaches there.
func (sh *shard) run(end time.Duration) {
	sh.clk.Run(end)
	sh.cell.Advance(end, true)
}

type city struct {
	cfg    Config
	shards []*shard
	ues    []*ue
	gridW  int
	// due is the scratch list of the shards the current barrier touches,
	// the only ones step brings to it: written by the coordinator, read by
	// the pool. Its order never affects results, only wall time.
	due  []int32
	pool *epochPool
	// Tallies of step's barriers, the pooled ones, and due-list lengths.
	barriers, pooled, dueSum int64
}

// parkAfterYields bounds a helper's wait by yielding. At ≈ 0.1 µs a yield
// with nothing else runnable it is about a millisecond — a few barrier
// spacings of a busy city (≈ 0.3 ms) — after which the helper parks, so a
// static city, a slow sink or the end of a run stop costing a core. Swept on
// city-par: 50 parks at every barrier again; 500 to 50 000 read alike.
const parkAfterYields = 10000

// epochPool is the barrier's hand-off: Workers−1 helpers and the coordinator
// itself drain an atomic cursor over city.due. The coordinator publishes an
// advance by bumping gen and collects it when left reads zero; both sides
// wait by yielding, so no thread sleeps in the kernel between barriers a
// fraction of a millisecond apart. Atomics are sequentially consistent: a
// helper that saw the new gen sees all the coordinator wrote before it, and
// the coordinator that saw zero all the helpers did. Due shards are
// independent up to the barrier (the package invariant), so who runs which
// cannot leak into results.
type epochPool struct {
	n       *city
	helpers int32
	end     time.Duration // barrier of the current generation
	quit    bool          // the current generation is the last
	cursor  atomic.Int64
	gen     atomic.Uint64
	left    atomic.Int32 // helpers still in the current generation
	mu      sync.Mutex   // a gen bump holds it, and so does a helper deciding to park
	wake    sync.Cond
	parked  int // helpers in wake.Wait, under mu (tests wait on it)
}

func newEpochPool(n *city, workers int) *epochPool {
	p := &epochPool{n: n, helpers: int32(workers - 1)}
	p.wake.L = &p.mu
	for range p.helpers {
		go p.help()
	}
	return p
}

func (p *epochPool) help() {
	for seen, quit := uint64(0), false; !quit; seen++ {
		for spins := 0; p.gen.Load() == seen; spins++ {
			if spins < parkAfterYields {
				runtime.Gosched()
				continue
			}
			// Under mu no bump falls between the re-check and the wait.
			p.mu.Lock()
			p.parked++
			for p.gen.Load() == seen {
				p.wake.Wait()
			}
			p.parked--
			p.mu.Unlock()
		}
		p.drain()
		quit = p.quit
		p.left.Add(-1)
	}
}

func (p *epochPool) drain() {
	for k := p.cursor.Add(1) - 1; k < int64(len(p.n.due)); k = p.cursor.Add(1) - 1 {
		p.n.shards[p.n.due[k]].run(p.end)
	}
}

// run brings every shard on the due list to end and returns when all are
// there, longest catch-up (residents × lag) first so that the advance
// does not end on one goroutine finishing a long shard alone. All a helper
// reads is written before gen moves; no shard is touched until left is zero.
func (p *epochPool) run(end time.Duration) {
	pending := func(c int32) int64 {
		sh := p.n.shards[c]
		return int64(len(sh.residents)) * int64(end-sh.clk.Now())
	}
	slices.SortFunc(p.n.due, func(a, b int32) int { return cmp.Compare(pending(b), pending(a)) })
	p.end = end
	p.cursor.Store(0)
	p.left.Store(p.helpers)
	p.mu.Lock()
	p.gen.Add(1)
	p.mu.Unlock()
	p.wake.Broadcast()
	p.drain()
	for p.left.Load() != 0 {
		runtime.Gosched()
	}
}

// stop publishes an empty last generation, which wakes any parked helper,
// and returns once every helper has counted itself out of it and is exiting.
func (p *epochPool) stop() {
	p.quit = true
	p.n.due = p.n.due[:0]
	p.run(0)
}

// Run executes one city simulation to completion.
func Run(cfg Config) (*Result, error) {
	n, err := newCity(cfg)
	if err != nil {
		return nil, err
	}
	return n.run(), nil
}

// run steps the city to its end, joins the pool and folds the result.
func (n *city) run() *Result {
	if n.pool != nil {
		defer n.pool.stop()
	}
	for now := time.Duration(0); now < n.cfg.Duration; {
		now = n.step(now)
	}
	// Seal the spill streams: gauges (none today on city buses) and any
	// pending bytes, coordinator first, then shards in id order.
	n.cfg.Obs.FinishSpill()
	for _, sh := range n.shards {
		sh.radio.FinishSpill()
	}

	return n.finalize()
}

// newCity builds the city at t = 0, every UE admitted. The caller stops
// the pool, if Workers > 1 gave it one.
func newCity(cfg Config) (*city, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	n := &city{cfg: cfg, gridW: gridWidth(cfg.Cells)}

	// --- Shards: one clock + one AlwaysPF cell per grid slot ----------
	n.shards = make([]*shard, cfg.Cells)
	n.due = make([]int32, 0, cfg.Cells)
	for c := range n.shards {
		// Every cell is a campus cell; each capacity process gets its
		// own derived seed, so trajectories differ per cell.
		prof := lte.ProfileCampus
		prof.Seed = seeds.Stream(seeds.Grid(cfg.Seed, c, 0, 0), "cell")
		cellCfg := lte.DefaultCellConfig(prof)
		// A city cell's discipline must not flip between the legacy
		// stochastic path and PF as its population churns through 1.
		cellCfg.AlwaysPF = true
		cellCfg.CapacityStride = capacityStride
		clk := simclock.New()
		cell, err := lte.NewCell(clk, cellCfg)
		if err != nil {
			return nil, fmt.Errorf("network: cell %d: %w", c, err)
		}
		sh := &shard{clk: clk, cell: cell}
		n.shards[c] = sh
		clk.Ticker(frameInterval, sh.tickResidents)
		if cfg.radio() {
			sh.radio = obs.NewBus()
			sh.radio.DisableRetention()
			if cfg.Sink != nil {
				sh.radio.SpillTo(cfg.Sink, int32(c), 0)
			}
			if cfg.Agg != nil {
				cfg.Agg.Bind(int32(c), sh.radio)
			}
		}
	}

	// --- UEs: mobility stream, controller mix, initial attachment -----
	n.ues = make([]*ue, cfg.UEs)
	for i := range n.ues {
		u, err := n.newUE(i)
		if err != nil {
			return nil, err
		}
		n.ues[i] = u
		if err := n.attach(u, u.cur, 0); err != nil {
			return nil, err
		}
		u.stats.HomeCell = u.cur
	}

	if w := min(cfg.Workers, len(n.shards)); w > 1 {
		n.pool = newEpochPool(n, w)
	}
	return n, nil
}

// step takes the city from the barrier at now to the next one and returns
// its time. It runs to that barrier only the shards something there is
// about to touch; any other clock stays put and covers the gap in one Run
// when a later barrier touches its shard — the same events in the same
// order as running it barrier by barrier. planMobility goes first: it
// settles where each UE wants to be, which decides the handovers.
func (n *city) step(now time.Duration) time.Duration {
	end := min(now+epoch, n.cfg.Duration)
	final := end == n.cfg.Duration
	n.due = n.due[:0]
	if !final {
		n.planMobility(end)
		n.fold(end, n.touchStart, n.touchComplete)
	}
	if final || n.cfg.radio() {
		// The end of the run, and the flush below (it hands every radio
		// bus's bytes to the sink barrier by barrier), touch every shard
		// with a resident: a city with radio buses advances in lockstep.
		for c, sh := range n.shards {
			if len(sh.residents) > 0 {
				n.touch(c, end)
			}
		}
	}
	n.barriers++
	n.dueSum += int64(len(n.due))
	if n.pool != nil && len(n.due) > 1 {
		n.pooled++
		n.pool.run(end)
	} else {
		for _, c := range n.due {
			n.shards[c].run(end)
		}
	}
	if !final {
		n.fold(end, n.startHandover, n.completeHandover)
	}
	n.flushTelemetry()
	return end
}

// touch puts a shard on the due list of the barrier at end, once.
func (n *city) touch(cell int, end time.Duration) {
	if sh := n.shards[cell]; sh.dueAt != end {
		sh.dueAt = end
		n.due = append(n.due, int32(cell))
	}
}

// touchStart and touchComplete mark the shards startHandover and
// completeHandover reach into: the one detached from; the one retired
// from and the one attached to (the same, if the UE walked back).
func (n *city) touchStart(u *ue, end time.Duration) { n.touch(u.cell, end) }

func (n *city) touchComplete(u *ue, end time.Duration) {
	n.touch(u.cell, end)
	n.touch(u.cur, end)
}

// flushTelemetry hands every spilling bus's pending buffer to the shared
// sink — coordinator stream first (shard -1), then radio shards in cell
// order — and then syncs the sink, so a barrier costs the underlying
// writer one Write however many shards flushed, and a tailing reader
// still sees every epoch as it closes. Runs only on the coordinator
// goroutine (the epoch barrier), so the stream's flush interleaving is a
// function of the configuration alone, never of worker scheduling.
// Untelemetered runs skip the sweep entirely (the common benchmark
// configuration has neither bus).
func (n *city) flushTelemetry() {
	if n.cfg.Obs == nil && !n.cfg.radio() {
		return
	}
	n.cfg.Obs.Flush()
	for _, sh := range n.shards {
		sh.radio.Flush()
	}
	n.cfg.Sink.Sync()
	n.cfg.Obs.Sync() // a no-op unless Obs spills to a sink of its own
}

// planMobility advances every mobility trace to the barrier, in UE-id
// order. It touches only coordinator-exclusive fields: the trace tells the
// coordinator where the UE *wants* to be; the handover machinery that acts
// on it (fold) runs once the shards it touches have caught up.
func (n *city) planMobility(now time.Duration) {
	for _, u := range n.ues {
		if u.mrng != nil && now >= u.nextMove {
			next := stepCell(u.cur, n.cfg.Cells, n.gridW, u.mrng)
			u.nextMove = now + dwell(u.mrng, n.cfg.MeanDwell)
			if next != u.cur {
				u.cur = next
				u.stats.Moves++
			}
		}
	}
}

// fold is the single-threaded barrier's handover state machine, in UE-id
// order (the deterministic fold). Which UEs it moves depends on their
// coordinator-written fields alone, so step's two passes — marking the
// shards each move touches, then, with those caught up to now, making the
// moves — cannot disagree.
func (n *city) fold(now time.Duration, start, complete func(*ue, time.Duration)) {
	for _, u := range n.ues {
		switch {
		case u.link != nil && u.cell != u.cur:
			start(u, now)
		case u.link == nil && now >= u.outageUntil:
			complete(u, now)
		}
	}
}

func (n *city) startHandover(u *ue, now time.Duration) {
	sh := n.shards[u.cell]
	sh.tally(u.link)
	dropped := sh.cell.DetachUE(u.link)
	u.link = nil // radio gone; in-flight core deliveries still land
	u.detachAt = now
	transfer := time.Duration(float64(dropped) * 8 / transferRate * float64(time.Second))
	u.outageUntil = now + handoverBase + transfer
	u.probe.Emit(now, obs.NetDetach, float64(u.cell), float64(dropped), 0, 0)
}

func (n *city) completeHandover(u *ue, now time.Duration) {
	from := u.cell
	u.retire(n.shards[from])
	outage := now - u.detachAt
	if err := n.attach(u, u.cur, now); err != nil {
		// AddUE only fails on config validation, which passed at
		// admission; a failure here is a programming error.
		panic(err)
	}
	u.stats.Handovers++
	u.stats.OutageTotal += outage
	u.probe.Emit(now, obs.NetHandover, float64(from), float64(u.cur), outage.Seconds(), 0)
}

func (n *city) finalize() *Result {
	cfg := n.cfg
	res := &Result{
		Cells:       cfg.Cells,
		UEs:         cfg.UEs,
		Duration:    cfg.Duration,
		Warmup:      cfg.warmup(),
		MeanDwell:   cfg.MeanDwell,
		PerUE:       make([]UEStats, cfg.UEs),
		PerCellJain: make([]float64, cfg.Cells),
		occupied:    make([]bool, cfg.Cells),
	}

	var outageSum time.Duration
	var sentFBCC, badFBCC, sentGCC, badGCC int
	perUEBits := make([]float64, cfg.UEs)
	for i, u := range n.ues {
		s := u.stats
		s.ID = u.id
		s.RC = u.rc
		s.FinalCell = u.cur
		if u.fbcc != nil {
			s.Degradations = u.fbcc.Degradations()
		}
		res.PerUE[i] = s
		perUEBits[i] = s.BitsDelivered

		res.Handovers += s.Handovers
		outageSum += s.OutageTotal
		res.Degradations += s.Degradations
		res.Recoveries += s.Recoveries
		res.ThroughputBps += s.BitsDelivered
		if u.rc == RCFBCC {
			sentFBCC += s.FramesSent
			badFBCC += s.FramesLost() + s.FramesFrozen
		} else {
			sentGCC += s.FramesSent
			badGCC += s.FramesLost() + s.FramesFrozen
		}
	}
	if res.Handovers > 0 {
		res.OutageMean = outageSum / time.Duration(res.Handovers)
	}
	if sentFBCC > 0 {
		res.FreezeFBCC = float64(badFBCC) / float64(sentFBCC)
	}
	if sentGCC > 0 {
		res.FreezeGCC = float64(badGCC) / float64(sentGCC)
	}
	if measured := (cfg.Duration - cfg.warmup()).Seconds(); measured > 0 {
		res.ThroughputBps /= measured
	}
	res.JainGlobal = metrics.JainFairness(perUEBits)

	for _, u := range n.ues {
		if u.link != nil {
			n.shards[u.cell].tally(u.link)
		}
	}
	for c, sh := range n.shards {
		res.PerCellJain[c] = metrics.JainFromSums(sh.residencies, sh.servedSum, sh.servedSq)
		res.occupied[c] = sh.residencies > 0
	}
	return res
}

// Summarize renders headline numbers in one line.
func (r *Result) Summarize() string {
	return fmt.Sprintf("%d cells × %d UEs over %v (dwell %v): %d handovers (mean outage %v), watchdog %d↓ %d↑, freeze fbcc %.2f%% gcc %.2f%%, Jain %.3f (per-cell mean %.3f), %.2f Mbps aggregate",
		r.Cells, r.UEs, r.Duration, r.MeanDwell, r.Handovers, r.OutageMean.Round(time.Millisecond),
		r.Degradations, r.Recoveries, 100*r.FreezeFBCC, 100*r.FreezeGCC,
		r.JainGlobal, r.MeanPerCellJain(), r.ThroughputBps/1e6)
}
