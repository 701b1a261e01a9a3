// Package netsim composes the end-to-end network path of a POI360 session
// beyond the LTE uplink: core-network propagation with jitter and latency
// spikes, rate-limited droptail queues (wireline bottlenecks, congested
// middle segments), and the reverse path that carries ROI and congestion
// feedback. It provides two ready transports — cellular (LTE
// uplink bottleneck, the paper's main scenario) and wireline (the campus
// baseline used for comparison in §6.1).
package netsim

import (
	"fmt"
	"time"

	"poi360/internal/fifo"
	"poi360/internal/lte"
	"poi360/internal/obs"
	"poi360/internal/seeds"
	"poi360/internal/simclock"
)

// LinkFault decides the fate of a message entering a DelayLink at the given
// instant: drop it, duplicate it, and/or add extra one-way delay. It must be
// a pure function of the instant (no internal randomness) so faulted links
// stay deterministic; internal/faults.Script.FeedbackFate satisfies this.
type LinkFault func(now time.Duration) (drop, dup bool, extra time.Duration)

// DelayLink delivers messages after a stochastic one-way delay while
// preserving FIFO order (a later send never overtakes an earlier one).
type DelayLink struct {
	clk       simclock.Scheduler
	rng       *seeds.SplitMix
	base      time.Duration
	jitterStd time.Duration
	spikeProb float64
	spikeMax  time.Duration
	deliver   func(any)
	// code is the link's typed event code: delivery events carry only
	// (code, payload), not a function value (simclock "typed event codes").
	code    simclock.Code
	lastOut time.Duration

	fault LinkFault

	// probe, when non-nil, receives net.fault.* telemetry (internal/obs).
	probe *obs.Probe
}

// SetProbe installs the link's telemetry probe (nil disables).
func (l *DelayLink) SetProbe(p *obs.Probe) { l.probe = p }

// NewDelayLink creates a link with the given delay distribution; deliver is
// invoked on the simulation goroutine when a message arrives.
func NewDelayLink(clk simclock.Scheduler, seed int64, base, jitterStd time.Duration, spikeProb float64, spikeMax time.Duration, deliver func(any)) *DelayLink {
	if deliver == nil {
		deliver = func(any) {}
	}
	return &DelayLink{
		clk:       clk,
		rng:       seeds.NewSource(seed),
		base:      base,
		jitterStd: jitterStd,
		spikeProb: spikeProb,
		spikeMax:  spikeMax,
		deliver:   deliver,
		code:      clk.NewCode(deliver),
	}
}

// SetFault installs a scripted fault hook consulted once per Send. A nil
// hook clears it. The hook sees the send instant, so window-based scripts
// affect exactly the messages sent inside their windows.
func (l *DelayLink) SetFault(fn LinkFault) { l.fault = fn }

// Send schedules delivery of payload after a sampled delay.
func (l *DelayLink) Send(payload any) {
	copies := 1
	var extra time.Duration
	if l.fault != nil {
		drop, dup, ex := l.fault(l.clk.Now())
		if drop {
			l.probe.Emit(l.clk.Now(), obs.NetFaultDrop, 0, 0, 0, 0)
			return
		}
		if dup {
			copies = 2
			l.probe.Emit(l.clk.Now(), obs.NetFaultDup, 0, 0, 0, 0)
		}
		if ex > 0 {
			l.probe.Emit(l.clk.Now(), obs.NetFaultDelay, ex.Seconds(), 0, 0, 0)
		}
		extra = ex
	}
	for i := 0; i < copies; i++ {
		d := extra + l.base + time.Duration(l.rng.NormFloat64()*float64(l.jitterStd))
		if l.spikeProb > 0 && l.rng.Float64() < l.spikeProb {
			d += time.Duration(l.rng.Float64() * float64(l.spikeMax))
		}
		if d < 0 {
			d = 0
		}
		out := l.clk.Now() + d
		if out < l.lastOut {
			out = l.lastOut // FIFO: no overtaking
		}
		l.lastOut = out
		// The typed event code carries the delivery in the recycled event
		// slot: no closure or function value on the per-packet path.
		l.clk.ScheduleCode(out, l.code, payload)
	}
}

// Queue is a rate-limited droptail FIFO: the standard fluid model of a
// bottleneck link with a finite buffer.
type Queue struct {
	clk       simclock.Scheduler
	rateBps   float64
	capBytes  int
	deliver   func(any)
	busyUntil time.Duration
	bytes     int
	dropped   int64

	// code is the queue's typed drain event. Completion times are
	// monotonic (busyUntil never decreases), so coded events fire in FIFO
	// order and each one pops the head of pend — no per-packet closure.
	code simclock.Code
	pend fifo.Queue[queued]

	// probe, when non-nil, receives net.queue.drop telemetry.
	probe *obs.Probe
}

// queued is one in-flight message of a Queue's fluid model.
type queued struct {
	bytes   int
	payload any
}

// SetProbe installs the queue's telemetry probe (nil disables).
func (q *Queue) SetProbe(p *obs.Probe) { q.probe = p }

// NewQueue creates a bottleneck of rateBps with capBytes of buffering.
func NewQueue(clk simclock.Scheduler, rateBps float64, capBytes int, deliver func(any)) *Queue {
	if rateBps <= 0 || capBytes <= 0 {
		panic(fmt.Sprintf("netsim: invalid queue rate=%g cap=%d", rateBps, capBytes))
	}
	q := &Queue{clk: clk, rateBps: rateBps, capBytes: capBytes, deliver: deliver}
	q.code = clk.NewCode(q.drain)
	return q
}

// drain completes transmission of the head-of-line message.
func (q *Queue) drain(any) {
	e := q.pend.Pop()
	q.bytes -= e.bytes
	if q.deliver != nil {
		q.deliver(e.payload)
	}
}

// Send enqueues a message of the given wire size; it reports false when the
// buffer is full and the message is dropped.
func (q *Queue) Send(bytes int, payload any) bool {
	if q.bytes+bytes > q.capBytes {
		q.dropped++
		q.probe.Emit(q.clk.Now(), obs.NetQueueDrop, float64(bytes), float64(q.bytes), 0, 0)
		return false
	}
	q.bytes += bytes
	start := q.clk.Now()
	if q.busyUntil > start {
		start = q.busyUntil
	}
	finish := start + time.Duration(float64(bytes)*8/q.rateBps*float64(time.Second))
	q.busyUntil = finish
	q.pend.Push(queued{bytes: bytes, payload: payload})
	q.clk.ScheduleCode(finish, q.code, nil)
	return true
}

// Dropped reports messages rejected at the buffer cap.
func (q *Queue) Dropped() int64 { return q.dropped }

// PathProfile describes the wide-area segments of a session path.
type PathProfile struct {
	Name string
	// Forward core-network one-way delay (after the access bottleneck).
	CoreBase      time.Duration
	CoreJitterStd time.Duration
	CoreSpikeProb float64
	CoreSpikeMax  time.Duration
	// Reverse path carrying ROI/M/GCC feedback to the sender.
	RevBase      time.Duration
	RevJitterStd time.Duration
	RevSpikeProb float64
	RevSpikeMax  time.Duration
}

// CellularPath reflects the paper's LTE measurements: long, unstable RTT
// with occasional latency spikes (§3.1 cites [46]).
var CellularPath = PathProfile{
	Name:          "cellular",
	CoreBase:      35 * time.Millisecond,
	CoreJitterStd: 10 * time.Millisecond,
	CoreSpikeProb: 0.0004,
	CoreSpikeMax:  250 * time.Millisecond,
	RevBase:       80 * time.Millisecond,
	RevJitterStd:  25 * time.Millisecond,
	RevSpikeProb:  0.003,
	RevSpikeMax:   300 * time.Millisecond,
}

// WirelinePath reflects the campus wireline baseline: short stable RTT.
var WirelinePath = PathProfile{
	Name:          "wireline",
	CoreBase:      9 * time.Millisecond,
	CoreJitterStd: 1500 * time.Microsecond,
	CoreSpikeProb: 0.0005,
	CoreSpikeMax:  30 * time.Millisecond,
	RevBase:       9 * time.Millisecond,
	RevJitterStd:  1500 * time.Microsecond,
	RevSpikeProb:  0.0005,
	RevSpikeMax:   30 * time.Millisecond,
}

// NominalRTT returns the no-load round-trip estimate for the profile, used
// by FBCC's 2-RTT hold (Eq. 6).
func (p PathProfile) NominalRTT() time.Duration { return p.CoreBase + p.RevBase }

// Transport is what a session sees of the network: a forward media path, a
// reverse feedback path, and (on cellular) the modem diagnostics.
type Transport interface {
	// Send puts a media packet of the given wire size on the forward path;
	// false reports an access-buffer drop.
	Send(bytes int, payload any) bool
	// SendFeedback carries a small message from receiver to sender.
	SendFeedback(payload any)
	// SetDiagListener registers the LTE diag consumer. On transports
	// without modem diagnostics it never fires.
	SetDiagListener(func(lte.DiagReport))
	// SetFeedbackFault installs a scripted disturbance on the reverse
	// (feedback) path: drop, duplicate, or delay messages per instant.
	// A nil hook clears it.
	SetFeedbackFault(LinkFault)
}

// Cellular is the paper's main transport: an LTE uplink bottleneck — one
// UE's share of a cell — followed by the core network. Obtain one from
// NewCellular (a private 1-UE cell, the paper's single-user scenario) or
// SharedCell.Attach (one UE of a contended multi-user cell).
type Cellular struct {
	// UE is this transport's modem in its cell (always non-nil).
	UE   *lte.UE
	core *DelayLink
	rev  *DelayLink
}

// NewCellular wires a private 1-UE LTE cell into a core-network path.
// deliverFwd receives media packet payloads at the far end; deliverRev
// receives feedback payloads at the sender. The forward and reverse
// wide-area links derive their jitter streams from the cell seed via the
// named "core"/"rev" streams (internal/seeds).
func NewCellular(clk simclock.Scheduler, lteCfg lte.Config, prof PathProfile, deliverFwd, deliverRev func(any)) (*Cellular, error) {
	c := &Cellular{}
	c.core = newPathLink(clk, lteCfg.Profile.Seed, "core", prof, deliverFwd)
	ul, err := lte.NewUplink(clk, lteCfg, func(p lte.Packet) { c.core.Send(p.Payload) })
	if err != nil {
		return nil, err
	}
	c.UE = ul.UE()
	c.rev = newRevLink(clk, lteCfg.Profile.Seed, prof, deliverRev)
	ul.Start()
	return c, nil
}

// newPathLink builds the forward core-network segment of a path with its
// jitter stream derived from (seed, tag).
func newPathLink(clk simclock.Scheduler, seed int64, tag string, prof PathProfile, deliver func(any)) *DelayLink {
	return NewDelayLink(clk, seeds.Stream(seed, tag), prof.CoreBase, prof.CoreJitterStd, prof.CoreSpikeProb, prof.CoreSpikeMax, deliver)
}

// newRevLink builds the reverse feedback segment of a path with its jitter
// stream derived from (seed, "rev").
func newRevLink(clk simclock.Scheduler, seed int64, prof PathProfile, deliver func(any)) *DelayLink {
	return NewDelayLink(clk, seeds.Stream(seed, "rev"), prof.RevBase, prof.RevJitterStd, prof.RevSpikeProb, prof.RevSpikeMax, deliver)
}

// Send implements Transport.
func (c *Cellular) Send(bytes int, payload any) bool {
	return c.UE.Enqueue(lte.Packet{Bytes: bytes, Payload: payload})
}

// SendFeedback implements Transport.
func (c *Cellular) SendFeedback(payload any) { c.rev.Send(payload) }

// SetDiagListener implements Transport.
func (c *Cellular) SetDiagListener(fn func(lte.DiagReport)) { c.UE.SetDiagListener(fn) }

// SetFeedbackFault implements Transport.
func (c *Cellular) SetFeedbackFault(fn LinkFault) { c.rev.SetFault(fn) }

// SetProbe threads a session's telemetry probe through this transport:
// the UE (lte.grant / lte.diag / lte.drop) and both wide-area links
// (net.fault.*). Sessions discover it by type assertion, so the
// Transport interface stays unchanged; a nil probe disables everything.
func (c *Cellular) SetProbe(p *obs.Probe) {
	c.UE.SetProbe(p)
	c.core.SetProbe(p)
	c.rev.SetProbe(p)
}

// DiagStalled reports diagnostic reports suppressed by a scripted
// DiagFault on this transport's UE.
func (c *Cellular) DiagStalled() int64 { return c.UE.DiagStalled() }

// SharedCell owns one multi-user LTE cell and binds each attached
// session's forward path to its own UE, so uplink contention between the
// sessions *emerges* from the cell's proportional-fair subframe scheduler
// instead of being modeled by a scalar load. Attach every session, then
// call Start exactly once before running the clock.
type SharedCell struct {
	clk simclock.Scheduler
	// Cell is the shared radio resource (exposed for tests and traces).
	Cell *lte.Cell
	prof PathProfile
}

// NewSharedCell builds a contended cell on clk. Every session attached via
// Attach shares cellCfg.Profile's capacity.
func NewSharedCell(clk simclock.Scheduler, cellCfg lte.CellConfig, prof PathProfile) (*SharedCell, error) {
	cell, err := lte.NewCell(clk, cellCfg)
	if err != nil {
		return nil, err
	}
	return &SharedCell{clk: clk, Cell: cell, prof: prof}, nil
}

// Attach admits one session to the cell: a new UE for its uplink plus
// per-session forward/reverse wide-area links whose jitter streams derive
// from linkSeed (named "core"/"rev" streams). deliverFwd receives media
// packet payloads at the far end; deliverRev receives feedback payloads at
// the sender. Attach must precede Start.
func (sc *SharedCell) Attach(ueCfg lte.UEConfig, linkSeed int64, deliverFwd, deliverRev func(any)) (*Cellular, error) {
	c := &Cellular{}
	c.core = newPathLink(sc.clk, linkSeed, "core", sc.prof, deliverFwd)
	ue, err := sc.Cell.AddUE(ueCfg, func(p lte.Packet) { c.core.Send(p.Payload) })
	if err != nil {
		return nil, err
	}
	c.UE = ue
	c.rev = newRevLink(sc.clk, linkSeed, sc.prof, deliverRev)
	return c, nil
}

// Start schedules the cell's subframe scheduler. Call exactly once, after
// every Attach and before running the clock.
func (sc *SharedCell) Start() { sc.Cell.Start() }

// Wireline is the campus-network baseline: a fat, stable access bottleneck.
type Wireline struct {
	q    *Queue
	core *DelayLink
	rev  *DelayLink
}

// WirelineRate is the access bottleneck of the wireline baseline. Well
// above the raw 360° stream rate, as on the paper's campus network.
const WirelineRate = 20e6

// NewWireline builds the wireline transport. The forward and reverse links
// derive their jitter streams from seed via the named "core"/"rev" streams
// (internal/seeds).
func NewWireline(clk simclock.Scheduler, seed int64, prof PathProfile, deliverFwd, deliverRev func(any)) *Wireline {
	w := &Wireline{}
	w.core = newPathLink(clk, seed, "core", prof, deliverFwd)
	w.q = NewQueue(clk, WirelineRate, 256*1024, func(p any) { w.core.Send(p) })
	w.rev = newRevLink(clk, seed, prof, deliverRev)
	return w
}

// Send implements Transport.
func (w *Wireline) Send(bytes int, payload any) bool { return w.q.Send(bytes, payload) }

// SendFeedback implements Transport.
func (w *Wireline) SendFeedback(payload any) { w.rev.Send(payload) }

// SetDiagListener implements Transport; wireline has no modem, so the
// listener never fires and FBCC degrades to its embedded GCC (§4.3.1,
// "handling congestion elsewhere").
func (w *Wireline) SetDiagListener(func(lte.DiagReport)) {}

// SetFeedbackFault implements Transport.
func (w *Wireline) SetFeedbackFault(fn LinkFault) { w.rev.SetFault(fn) }

// SetProbe threads a session's telemetry probe through the wireline
// transport: the access queue (net.queue.drop) and both wide-area links
// (net.fault.*). Discovered by type assertion like Cellular's.
func (w *Wireline) SetProbe(p *obs.Probe) {
	w.q.SetProbe(p)
	w.core.SetProbe(p)
	w.rev.SetProbe(p)
}

var (
	_ Transport = (*Cellular)(nil)
	_ Transport = (*Wireline)(nil)
)
