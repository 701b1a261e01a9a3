// Package ratecontrol implements the two congestion controllers compared in
// the paper: a faithful-in-spirit Google Congestion Control (GCC) — the
// WebRTC default used as the end-to-end baseline — and POI360's
// Firmware-Buffer-aware Congestion Control (FBCC, §4.3), which reads the
// LTE modem diagnostics to detect uplink congestion within a few 40 ms
// reports and pins the encoding bitrate to the measured PHY throughput.
package ratecontrol

import (
	"fmt"
	"math"
	"time"

	"poi360/internal/fifo"
	"poi360/internal/obs"
)

// GCCPacingFactor is WebRTC's pacing multiplier on the target bitrate: a
// GCC-driven sender paces RTP this far above the video rate so a transient
// backlog in the application-layer queue can drain.
const GCCPacingFactor = 1.5

// GCC's calibration. GCCMinRate and GCCMaxRate bound every target rate
// a GCCReceiver reports, so a sender can reject a report outside them.
const (
	GCCMinRate = 150e3
	GCCMaxRate = 20e6
	// gccWindow is how many recent frames feed the trendline filter.
	gccWindow = 120
	// gccRing is the frame window's row count: room for the gccWindow+1
	// frames an append holds before the oldest leaves, rounded up to a
	// power of two so a slot is a mask.
	gccRing = 128
	// gccBeta is the multiplicative decrease applied to the received rate
	// on overuse (0.85 in GCC).
	gccBeta = 0.85
	// gccIncreasePerSec is the multiplicative increase factor per second
	// in the Increase state.
	gccIncreasePerSec = 1.25
	// gccInitialThreshold is the starting overuse threshold for the delay
	// slope, in ms of delay growth per second.
	gccInitialThreshold = 80
	// gccOveruseTime: the slope must stay above threshold this long before
	// overuse is signalled (GCC's ~10–100 ms persistence requirement).
	gccOveruseTime = 150 * time.Millisecond
	// gccRateWindow measures the received throughput and the loss ratio.
	gccRateWindow = time.Second
	// gccWarmup disarms the overuse detector for the first instants of
	// the session while the access-link queue primes (WebRTC's start
	// phase).
	gccWarmup = 1500 * time.Millisecond
)

// GCCConfig parameterizes the delay-gradient controller.
type GCCConfig struct {
	// InitialRate seeds the target before any feedback.
	InitialRate float64
	// IncrementalTrendline maintains the trendline regression sums
	// incrementally (O(1) per frame) instead of re-scanning the whole
	// window on every frame. The fitted slope differs from the scanned
	// fit only in floating-point summation order, within the bound
	// TestIncrementalTrendlineTracksScan holds it to. DefaultGCCConfig
	// sets it, so every receiver (sessions, the live path, the city)
	// fits in O(1); the scan is left only as the A/B arm of the
	// benchmark's GCC row and as the oracle of the tests.
	IncrementalTrendline bool
}

// DefaultGCCConfig returns the parameters used by the evaluation.
func DefaultGCCConfig() GCCConfig {
	return GCCConfig{InitialRate: 1.0e6, IncrementalTrendline: true}
}

// Validate reports an error for incoherent configurations.
func (c GCCConfig) Validate() error {
	if c.InitialRate < GCCMinRate || c.InitialRate > GCCMaxRate {
		return fmt.Errorf("ratecontrol: GCC initial rate %g outside bounds", c.InitialRate)
	}
	return nil
}

// BandwidthUsage is the detector verdict.
type BandwidthUsage int

// Detector states.
const (
	Normal BandwidthUsage = iota
	Overuse
	Underuse
)

func (b BandwidthUsage) String() string {
	switch b {
	case Overuse:
		return "overuse"
	case Underuse:
		return "underuse"
	default:
		return "normal"
	}
}

// rateState is GCC's AIMD state machine state.
type rateState int

const (
	stateIncrease rateState = iota
	stateHold
	stateDecrease
)

type seqObs struct {
	arrival time.Duration
	seq     int64
}

// GCCReceiver runs at the viewer: it filters per-frame one-way delays into
// a delay-gradient trendline, detects bandwidth overuse, and produces the
// REMB-style target rate that is fed back to the sender one RTT later.
type GCCReceiver struct {
	cfg GCCConfig

	// The frame window lives in parallel columns, each a ring of gccRing
	// rows: [fstart, fend) are logical frame counters, and frame i sits in
	// row slot(i), so a frame is written once and never moved. The split is
	// structure-of-arrays on purpose — the two hot scans touch disjoint
	// columns (the slope fit reads only fx/fy, the rate measurement only
	// farr/fbits), and with an interleaved struct each scan dragged the
	// other's fields through cache. fx/fy cache the trendline regressors
	// (arrival seconds, smoothed delay ms) at observation time with exactly
	// the conversions the fit used, so slopes are bit-identical to
	// recomputing them in the scan. A scanning receiver writes fx/fy rows
	// twice, at slot(i) and slot(i)+gccRing, so its window is always one
	// contiguous run from slot(fstart): walking the ring's two segments, a
	// split that moves with every frame, cost the per-packet live path
	// about 6 % of its speed. An incremental receiver reads a row's x only
	// when the row leaves the window or at a re-sum, and x is farr's
	// Seconds() — the same conversion of the same value — so it keeps no
	// fx column (nil).
	fx, fy       []float64
	fstart, fend int

	// rskip persists ReceivedRate's prefix cursor: every entry in
	// [fstart, min(rskip, fend)) has already tested below a past cutoff,
	// and cutoffs only grow, so those entries can never re-enter the rate
	// window. The cursor is reset with the window, and ReceivedRate still
	// applies the per-entry predicate past it — the returned sum is
	// bit-identical to a full scan.
	rskip int

	// Incremental trendline sums over [fstart, fend) (only maintained
	// when cfg.IncrementalTrendline is set; see GCCConfig).
	tsx, tsy, tsxx, tsxy float64

	// smoothed is the EWMA-filtered delay fed to the trendline, mirroring
	// WebRTC's smoothing of the accumulated delay before the slope fit.
	smoothed     float64
	haveSmoothed bool

	threshold    float64 // adaptive overuse threshold, ms/s
	overuseSince time.Duration
	inOveruse    bool

	state      rateState
	rate       float64
	lastUpdate time.Duration
	usage      BandwidthUsage

	// growElapsed/growFactor memoize Pow(gccIncreasePerSec, elapsed): Update
	// runs on a fixed cadence, so elapsed is the same Duration every call
	// and the transcendental (the costliest op of a steady-state Update)
	// collapses to one comparison. Same arguments ⇒ same float64, so the
	// memo is bit-identical to recomputing.
	growElapsed time.Duration
	growFactor  float64

	// seqs is the loss window: the packet sequence numbers of the last
	// gccRateWindow.
	seqs fifo.Queue[seqObs]

	// probe, when non-nil, receives detector-verdict (gcc.usage) and
	// AIMD state-transition (gcc.state) telemetry (internal/obs).
	probe *obs.Probe

	// The rate columns of the frame window, last so that the collector's
	// scan of the struct's pointer words ends before them.
	farr  [gccRing]time.Duration
	fbits [gccRing]float64
}

// clamp is math.Max(lo, math.Min(hi, x)) without the calls (assembly on
// amd64). For finite lo and hi it is the same float64 up to a NaN payload.
func clamp(x, lo, hi float64) float64 { return max(lo, min(hi, x)) }

// slot is the ring row of logical frame i (i ≥ 0).
func slot(i int) int { return int(uint(i) % gccRing) }

// SetProbe installs the telemetry probe (nil disables).
func (g *GCCReceiver) SetProbe(p *obs.Probe) { g.probe = p }

// NewGCCReceiver builds a receiver-side controller.
func NewGCCReceiver(cfg GCCConfig) (*GCCReceiver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &GCCReceiver{
		cfg:       cfg,
		threshold: gccInitialThreshold,
		state:     stateIncrease,
		rate:      cfg.InitialRate,
	}
	if cfg.IncrementalTrendline {
		g.fy = make([]float64, gccRing)
	} else {
		trend := make([]float64, 4*gccRing)
		g.fx, g.fy = trend[:2*gccRing:2*gccRing], trend[2*gccRing:]
	}
	return g, nil
}

// OnFrame records one received frame: its arrival time, one-way delay, and
// size. Call Update afterwards (or periodically) to refresh the target.
func (g *GCCReceiver) OnFrame(arrival, delay time.Duration, bits float64) {
	d := float64(delay) / float64(time.Millisecond)
	if !g.haveSmoothed {
		g.smoothed = d
		g.haveSmoothed = true
	} else {
		g.smoothed += 0.15 * (d - g.smoothed)
	}
	smoothedDelay := time.Duration(g.smoothed * float64(time.Millisecond))
	x := arrival.Seconds()
	y := float64(smoothedDelay.Milliseconds())
	k := slot(g.fend)
	g.farr[k] = arrival
	g.fbits[k] = bits
	g.fy[k] = y
	g.fend++
	if g.cfg.IncrementalTrendline {
		g.tsx += x
		g.tsy += y
		g.tsxx += x * x
		g.tsxy += x * y
		if g.fend-g.fstart > gccWindow {
			k := slot(g.fstart)
			ex, ey := g.farr[k].Seconds(), g.fy[k]
			g.tsx -= ex
			g.tsy -= ey
			g.tsxx -= ex * ex
			g.tsxy -= ex * ey
			g.fstart++
		}
		if g.fend%gccRing == 0 {
			g.resum()
		}
	} else {
		g.fx[k] = x
		g.fx[k+gccRing] = x
		g.fy[k+gccRing] = y
		if g.fend-g.fstart > gccWindow {
			g.fstart++
		}
	}
	if arrival >= gccWarmup {
		g.detect(arrival)
	}
}

// OnPacket records a received transport packet including its sequence
// number, enabling the loss-based controller (RTCP-receiver-report style).
func (g *GCCReceiver) OnPacket(arrival, delay time.Duration, bits float64, seq int64) {
	g.OnFrame(arrival, delay, bits)
	g.seqs.Push(seqObs{arrival: arrival, seq: seq})
	// The entry just pushed never expires, so the scan ends inside seqs.
	for arrival-g.seqs.Front().arrival > gccRateWindow {
		g.seqs.Pop()
	}
}

// LossRatio estimates the fraction of packets lost over the rate window
// from sequence-number gaps.
func (g *GCCReceiver) LossRatio() float64 {
	n := g.seqs.Len()
	if n < 2 {
		return 0
	}
	span := g.seqs.Back().seq - g.seqs.Front().seq + 1
	if span <= 0 {
		return 0
	}
	lost := span - int64(n)
	if lost <= 0 {
		return 0
	}
	return float64(lost) / float64(span)
}

// resum recomputes the incremental trendline sums from the window's rows,
// oldest first, as the scan adds them. Called once every gccRing appends
// (amortized O(1)), it bounds the sums' rounding error to that of the
// appends and evictions since the last re-sum: without it the error of a
// call that never decreases grows with every packet, and so do x and x²
// with the arrival seconds (TestIncrementalTrendlineTracksScan).
func (g *GCCReceiver) resum() {
	var sx, sy, sxx, sxy float64
	for i := g.fstart; i < g.fend; i++ {
		k := slot(i)
		x, y := g.farr[k].Seconds(), g.fy[k]
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	g.tsx, g.tsy, g.tsxx, g.tsxy = sx, sy, sxx, sxy
}

// slope returns the least-squares delay slope in ms per second over the
// frame window.
func (g *GCCReceiver) slope() float64 {
	n := g.fend - g.fstart
	if n < 3 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	if g.cfg.IncrementalTrendline {
		sx, sy, sxx, sxy = g.tsx, g.tsy, g.tsxx, g.tsxy
	} else {
		s := slot(g.fstart)
		fx, fy := g.fx[s:s+n], g.fy[s:s+n]
		for i, x := range fx {
			y := fy[i]
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
		}
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den <= 1e-12 {
		return 0
	}
	return (fn*sxy - sx*sy) / den
}

// detect updates the overuse detector and adapts the threshold the way GCC
// does (threshold drifts toward the observed |slope| so persistent
// moderate congestion still triggers while noise does not).
func (g *GCCReceiver) detect(now time.Duration) {
	s := g.slope()
	abs := math.Abs(s)

	// Adaptive threshold: as in GCC it chases |slope| quickly when exceeded
	// (desensitizing against persistent jitter) and decays slowly below.
	k := 0.02
	if abs < g.threshold {
		k = 0.002
	}
	g.threshold += k * (abs - g.threshold)
	g.threshold = clamp(g.threshold, 70, 600)

	prev := g.usage
	switch {
	case s > g.threshold:
		if !g.inOveruse {
			g.inOveruse = true
			g.overuseSince = now
		}
		if now-g.overuseSince >= gccOveruseTime {
			g.usage = Overuse
		}
	case s < -g.threshold:
		g.inOveruse = false
		g.usage = Underuse
	default:
		g.inOveruse = false
		g.usage = Normal
	}
	if g.usage != prev {
		g.probe.Emit(now, obs.GCCUsage, float64(g.usage), s, g.threshold, 0)
	}
}

// ReceivedRate measures the incoming throughput over the configured window.
func (g *GCCReceiver) ReceivedRate(now time.Duration) float64 {
	// Arrivals are (near-)monotone, so the out-of-window frames are a
	// prefix: skip it touching only the arrival column, then sum the
	// remainder in the same index order (and under the same per-entry
	// predicate, so a non-monotone arrival still lands in the same set)
	// as the full scan this replaces — bit-identical result.
	cutoff := now - gccRateWindow
	i, n := g.fstart, g.fend
	if g.rskip > i {
		i = g.rskip
	}
	for i < n && g.farr[slot(i)] < cutoff {
		i++
	}
	g.rskip = i
	var bits float64
	for ; i < n; i++ {
		if k := slot(i); now-g.farr[k] <= gccRateWindow {
			bits += g.fbits[k]
		}
	}
	return bits / gccRateWindow.Seconds()
}

// Update advances the AIMD state machine and returns the REMB target rate.
// Call it periodically (the session calls it once per feedback interval).
func (g *GCCReceiver) Update(now time.Duration) float64 {
	elapsed := now - g.lastUpdate
	if g.lastUpdate == 0 {
		elapsed = 0
	}
	g.lastUpdate = now
	prevState := g.state

	switch g.usage {
	case Overuse:
		g.state = stateDecrease
	case Underuse:
		// Queues are draining from a previous overuse: hold until normal.
		g.state = stateHold
	default:
		if g.state == stateDecrease {
			g.state = stateHold
		} else {
			g.state = stateIncrease
		}
	}

	switch g.state {
	case stateDecrease:
		recv := g.ReceivedRate(now)
		target := g.rate * gccBeta
		if recv > 0 {
			// Decrease relative to what actually arrived, but never raise
			// the rate on an overuse signal.
			target = min(gccBeta*recv, g.rate)
		}
		g.rate = target
		// One decrease per overuse signal: reset the trendline so stale
		// pre-decrease delays cannot re-trigger immediately.
		g.usage = Normal
		g.inOveruse = false
		g.fend = g.fstart
		g.rskip = g.fstart
		g.tsx, g.tsy, g.tsxx, g.tsxy = 0, 0, 0, 0
	case stateIncrease:
		if elapsed > 0 {
			if elapsed != g.growElapsed {
				g.growElapsed = elapsed
				g.growFactor = math.Pow(gccIncreasePerSec, elapsed.Seconds())
			}
			g.rate *= g.growFactor
		}
		// GCC never lets the estimate run away from reality: the target is
		// capped at 1.5× the observed incoming rate.
		if recv := g.ReceivedRate(now); recv > 0 {
			g.rate = min(g.rate, 1.5*recv+20e3)
		}
	case stateHold:
		// Keep the rate.
	}

	// Loss-based controller (RFC-style): >10% loss forces a proportional
	// decrease — the regime where a saturated droptail queue shows a flat
	// delay gradient that the trendline detector cannot see.
	if loss := g.LossRatio(); loss > 0.10 {
		g.rate *= 1 - 0.5*loss
	}

	g.rate = clamp(g.rate, GCCMinRate, GCCMaxRate)
	if g.state != prevState {
		g.probe.Emit(now, obs.GCCState, float64(g.state), g.rate, 0, 0)
	}
	return g.rate
}
