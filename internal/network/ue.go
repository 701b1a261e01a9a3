package network

import (
	"math"
	"slices"
	"time"

	"poi360/internal/fifo"
	"poi360/internal/lte"
	"poi360/internal/metrics"
	"poi360/internal/netsim"
	"poi360/internal/obs"
	"poi360/internal/ratecontrol"
	"poi360/internal/rtp"
	"poi360/internal/seeds"
)

// lastOfFrame marks the final RTP packet of a frame through the lte
// layer's opaque payload slot (one shared sentinel, no per-packet alloc).
var lastOfFrame any = new(struct{})

// appPkt is one packetized RTP payload waiting in the application send
// queue for pacing credit.
type appPkt struct {
	frame int64
	bytes int
	last  bool
}

// pendFrame tracks a captured frame until its last packet clears the air
// interface (dropPend abandons it when a packet is dropped first).
type pendFrame struct {
	id      int64
	capture time.Duration
	bits    float64
	counted bool // captured inside the measured window
}

// arrival is one frame in flight across the core path. Core deliveries
// used to be heap events (one scheduled closure per delivered frame —
// the largest allocation row of the city profile); they are now entries
// in a per-UE ring consumed by the next endpoint tick at or after the
// arrival instant. This is behaviour-preserving because nothing observes
// a frame arrival between ticks: GCCReceiver.OnFrame and the delivery
// stats are pure functions of the arrival arguments, and the first
// consumer of either is the receiver-side Update at the next tick. The
// core-path FIFO clamp makes arrival times monotone per UE, so the
// ring is consumed strictly from the front.
type arrival struct {
	arr     time.Duration
	capture time.Duration
	bits    float64
	counted bool
}

// feedback is one GCC rate estimate in flight across the reverse path,
// applied to the sender at the first tick at or after its due time —
// equivalent to the scheduled application it replaces, because the only
// reader of the fed-back rate is the sender half of the tick.
type feedback struct {
	due  time.Duration
	rate float64
}

// ue is one endpoint of the city: the sender half (frame capture, pacing,
// rate control) and the receiver half (arrival bookkeeping, GCC feedback)
// of a single uplink video call, resident on one shard at a time — the
// one record of the UE, its residency included. The coordinator moves the
// residency (cell, link, the radio probe's bus) only at single-threaded
// barriers: attach points it at the target cell, and retire takes the UE
// off the old shard's resident list, so nothing on the old shard reaches
// it again. A retired residency has no other way in: its modem row was
// detached (no delivery, no diag report) and its frames in flight were
// dropped with it.
//
// Endpoints do not churn memory. The application queue, the pending-frame
// window, and the arrival/feedback queues are fifo rings, so a queue
// allocates only when its live backlog sets a new record and nothing
// allocates once backlogs have peaked — which, in a static city whose
// senders fill their firmware buffers, takes minutes
// (TestCitySteadyStateAllocFree). The three per-UE RNG streams (mobility,
// core path, modem) are 8-byte SplitMix slots that a handover reseeds in
// place instead of reallocating, and the two radio callbacks and the radio
// probe are made once: a handover into a cell that has a free modem row
// allocates nothing, telemetered or not.
type ue struct {
	id  int
	rc  RC
	cfg *Config

	// mobility trace (nil mrng = static UE)
	mrng     *seeds.SplitMix
	cur      int // trace position (target cell)
	nextMove time.Duration

	// residency: the resident cell — the serving one, and through a
	// handover outage the old one, until re-attach — and its modem row,
	// nil during the outage (radio gone, core path still live)
	cell      int
	link      *lte.UE
	attachSeq int // residencies so far; past the first, each is a handover
	// lastArr enforces core-path FIFO: a delivery never overtakes the
	// previous one despite independent jitter draws.
	lastArr time.Duration
	// onAir and onDiag are the modem row's callbacks (deliver and, for
	// FBCC UEs, FBCC.OnDiag), bound once for every residency; radio is the
	// row's telemetry probe (nil unless the cells have radio buses), made
	// once and rebound to the resident cell's bus at attach.
	onAir  func(lte.Packet)
	onDiag func(lte.DiagReport)
	radio  *obs.Probe

	// Persistent per-UE RNG stream slots: reseeded (one store) per
	// residency with the seeds.Grid/Stream derivation of that residency.
	// The previous residency's consumers never draw again once retired —
	// a detached modem row draws only for the UE the cell admits into it
	// next, and a retired UE is on no resident list — so reuse cannot
	// interleave streams.
	pathSrc *seeds.SplitMix
	lteSrc  *seeds.SplitMix

	// handover bookkeeping
	detachAt    time.Duration
	outageUntil time.Duration

	// rate control (fbcc nil for GCC UEs; gccRx always present — FBCC
	// embeds GCC as its end-to-end fallback, §4.3.3)
	fbcc        *ratecontrol.FBCC
	gccRx       *ratecontrol.GCCReceiver
	rgcc        float64
	wasDegraded bool

	// sender pipeline
	frameID   int64
	appq      fifo.Queue[appPkt]
	appqBytes int
	credit    float64 // pacing bytes available

	// receiver pipeline
	pend fifo.Queue[pendFrame]

	// core-path arrivals and reverse-path feedback in flight, both
	// monotone in due time (see type comments).
	arrQ fifo.Queue[arrival]
	fbQ  fifo.Queue[feedback]

	probe *obs.Probe
	stats UEStats
}

func (n *city) newUE(id int) (*ue, error) {
	cfg := &n.cfg
	u := &ue{
		id:      id,
		rgcc:    ratecontrol.DefaultGCCConfig().InitialRate,
		probe:   cfg.Obs.Probe(int32(id)),
		radio:   n.shards[0].radio.Probe(int32(id)), // attach rebinds it
		cfg:     cfg,
		pathSrc: seeds.NewSource(0),
		lteSrc:  seeds.NewSource(0),
		// Initial capacities cover an uncongested sender (a frame's worth
		// of packets in flight, one feedback epoch, the ⌈RevBase/frame⌉+1
		// estimates in flight); a queue regrows only when its live backlog
		// outgrows them, as pend does while a firmware buffer fills up.
		appq: fifo.New[appPkt](32),
		arrQ: fifo.New[arrival](32),
		fbQ:  fifo.New[feedback](8),
		pend: fifo.New[pendFrame](16),
	}
	u.onAir = u.deliver
	switch cfg.Mix {
	case MixFBCC:
		u.rc = RCFBCC
	case MixGCC:
		u.rc = RCGCC
	default:
		if id%2 == 0 {
			u.rc = RCFBCC
		} else {
			u.rc = RCGCC
		}
	}

	// The mobility stream also places the UE: its first draw is the home
	// cell, so the population spreads deterministically over the grid.
	mrng := seeds.NewSource(seeds.Stream(seeds.Grid(cfg.Seed, 0, id, 0), "mobility"))
	u.cur = int(mrng.Float64() * float64(cfg.Cells))
	if cfg.MeanDwell > 0 && cfg.Cells > 1 {
		u.mrng = mrng
		u.nextMove = dwell(mrng, cfg.MeanDwell)
	}

	if u.rc == RCFBCC {
		// One-way core + reverse feedback + a capture interval on each
		// side approximates the control loop's RTT (sizes the Eq. 6 hold
		// and the watchdog timeout base).
		rtt := netsim.CellularPath.CoreBase + netsim.CellularPath.RevBase + 2*frameInterval
		f, err := ratecontrol.NewFBCC(ratecontrol.DefaultFBCCConfig(rtt))
		if err != nil {
			return nil, err
		}
		u.fbcc = f
		u.onDiag = f.OnDiag
	}
	g, err := ratecontrol.NewGCCReceiver(ratecontrol.DefaultGCCConfig())
	if err != nil {
		return nil, err
	}
	u.gccRx = g
	return u, nil
}

// attach starts a residency of u on the given cell: a modem row (fresh
// PF/EWMA state under per-residency seeds) probed on the cell's radio bus,
// and a slot on the shard's resident list, whose shard-level ticker drives
// the endpoint. Called only from the single-threaded coordinator
// (admission at t=0, handover completion at barriers), with the shard's
// clock and cell through now (shard.run): on a shard that had no resident
// the frame ticks it skipped have fired as the no-ops they were, keeping
// the ticker's phase.
func (n *city) attach(u *ue, cell int, now time.Duration) error {
	sh := n.shards[cell]
	handover := float64(min(u.attachSeq, 1))
	grid := seeds.Grid(n.cfg.Seed, cell, u.id, u.attachSeq)
	u.attachSeq++
	u.pathSrc.Seed(seeds.Stream(grid, "path"))
	u.lteSrc.Seed(seeds.Stream(grid, "lte"))
	ucfg := lte.DefaultUEConfig(0)
	ucfg.Src = u.lteSrc
	link, err := sh.cell.AddUE(ucfg, u.onAir)
	if err != nil {
		return err
	}
	// Radio telemetry rides the shard's private bus (per-UE sub), so
	// grant/diag/drop emissions during concurrent shard advance stay on
	// their own shard's stream.
	u.radio.Rebind(sh.radio)
	link.SetProbe(u.radio)
	link.SetDiagListener(u.onDiag)
	u.cell, u.link, u.lastArr = cell, link, now
	sh.residents = append(sh.residents, u)
	u.probe.Emit(now, obs.NetAttach, float64(cell), handover, 0, 0)
	return nil
}

// retire ends the residency on sh: the UE leaves the shard's resident
// list, and frames still queued or in flight are abandoned — they count as
// lost because they are never delivered.
func (u *ue) retire(sh *shard) {
	i := slices.Index(sh.residents, u)
	sh.residents = slices.Delete(sh.residents, i, i+1)
	u.pend.Reset()
	u.appq.Reset()
	u.appqBytes = 0
	u.credit = 0
	u.arrQ.Reset()
	u.fbQ.Reset()
}

// tick is the merged endpoint tick, run once per frameInterval by the
// resident shard's ticker: apply due reverse-path feedback, land due
// core-path arrivals, run the sender half (capture + pacing), then the
// receiver half (GCC estimate + feedback departure). During a handover
// outage the radio is gone (link nil) but the tick keeps running on the
// old shard — this is what lets the FBCC watchdog trip on the genuinely
// silent diag feed.
func (u *ue) tick(now time.Duration) {
	// Reverse-path feedback due by now, oldest first: the sender sees
	// exactly the rate a scheduled application would have left in place.
	for u.fbQ.Len() > 0 && u.fbQ.Front().due <= now {
		u.rgcc = u.fbQ.Pop().rate
	}

	// Core-path arrivals due by now, in arrival order (the ring is
	// monotone), before the receiver half reads the GCC window.
	for u.arrQ.Len() > 0 && u.arrQ.Front().arr <= now {
		a := u.arrQ.Pop()
		delay := a.arr - a.capture
		u.gccRx.OnFrame(a.arr, delay, a.bits)
		if a.counted {
			u.stats.FramesDelivered++
			u.stats.BitsDelivered += a.bits
			u.stats.DelaySum += delay
			if delay > metrics.FreezeThreshold {
				u.stats.FramesFrozen++
			}
		}
	}

	u.senderHalf(now)

	r := u.gccRx.Update(now)
	u.fbQ.Push(feedback{due: now + netsim.CellularPath.RevBase, rate: r})
}

// senderHalf captures one frame at the controller's video rate and drains
// the application queue at the pacing rate.
func (u *ue) senderHalf(now time.Duration) {
	interval := frameInterval.Seconds()

	var rv, pace float64
	if u.fbcc != nil {
		degraded := u.fbcc.CheckWatchdog(now)
		if u.wasDegraded && !degraded {
			u.stats.Recoveries++
		}
		u.wasDegraded = degraded
		rv = u.fbcc.VideoRate(now, u.rgcc)
		u.fbcc.SetVideoRate(rv)
		if degraded {
			// Diag-staleness fallback: pace from the embedded GCC like a
			// plain WebRTC sender until reports resume (§4.3.2).
			pace = ratecontrol.GCCPacingFactor * rv
		} else {
			pace = u.fbcc.RTPRate()
		}
	} else {
		rv = u.rgcc
		pace = ratecontrol.GCCPacingFactor * rv
	}

	// Frame capture: rv bits/s for one interval, packetized at the MTU.
	bits := rv * interval
	frameBytes := int(bits / 8)
	if frameBytes < 1 {
		frameBytes = 1
	}
	counted := now >= u.cfg.warmup()
	if counted {
		u.stats.FramesSent++
	}
	if u.appqBytes <= maxBacklogBytes {
		u.pend.Push(pendFrame{id: u.frameID, capture: now, bits: bits, counted: counted})
		for off := 0; off < frameBytes; off += rtp.MTU {
			sz := frameBytes - off
			if sz > rtp.MTU {
				sz = rtp.MTU
			}
			u.appq.Push(appPkt{frame: u.frameID, bytes: sz, last: off+rtp.MTU >= frameBytes})
			u.appqBytes += sz
		}
	}
	// else: backlog cap hit — the frame is skipped at capture (counted
	// in FramesSent, never delivered, hence lost).
	u.frameID++

	u.credit += pace * interval / 8
	if limit := 4 * float64(maxBacklogBytes); u.credit > limit {
		u.credit = limit
	}
	u.drain()
}

// drain moves application packets into the firmware buffer as pacing
// credit allows. With the radio detached (or the modem queue full) the
// packet is spent and its frame is lost.
func (u *ue) drain() {
	for u.appq.Len() > 0 {
		if float64(u.appq.Front().bytes) > u.credit {
			break
		}
		pkt := u.appq.Pop()
		u.appqBytes -= pkt.bytes
		u.credit -= float64(pkt.bytes)
		var payload any
		if pkt.last {
			payload = lastOfFrame
		}
		if u.link == nil || !u.link.Enqueue(lte.Packet{ID: pkt.frame, Bytes: pkt.bytes, Payload: payload}) {
			u.dropPend(pkt.frame)
		}
	}
}

// deliver runs inside the cell's advance when a packet clears the air
// interface, stamped with that subframe's instant (the shard's clock has
// moved on); the last packet of a frame draws the core-path jitter and
// queues the frame's arrival for the tick that covers it. It touches only
// this UE's state, as the advance contract requires.
func (u *ue) deliver(pkt lte.Packet) {
	if pkt.Payload == nil {
		return
	}
	e, ok := u.takePend(pkt.ID)
	if !ok {
		return
	}
	core := &netsim.CellularPath
	arr := u.link.Now() + core.CoreBase + time.Duration(math.Abs(u.pathSrc.NormFloat64())*float64(core.CoreJitterStd))
	if arr < u.lastArr {
		arr = u.lastArr
	}
	u.lastArr = arr
	u.arrQ.Push(arrival{arr: arr, capture: e.capture, bits: e.bits, counted: e.counted})
}

// takePend removes and returns the pending entry for a frame id. Frames
// complete near-FIFO, so the scan from the front is effectively O(1).
func (u *ue) takePend(id int64) (pendFrame, bool) {
	for i := 0; i < u.pend.Len(); i++ {
		if u.pend.At(i).id == id {
			return u.pend.Remove(i), true
		}
	}
	return pendFrame{}, false
}

// dropPend abandons a frame whose packet was lost before the air
// interface; later packets of the frame that still deliver find no entry
// and are ignored.
func (u *ue) dropPend(id int64) {
	u.takePend(id)
}
