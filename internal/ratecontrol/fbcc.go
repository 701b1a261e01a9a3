package ratecontrol

import (
	"fmt"
	"time"

	"poi360/internal/fifo"
	"poi360/internal/lte"
	"poi360/internal/metrics"
	"poi360/internal/obs"
)

// FBCC's calibration (§4.3; the table in DESIGN.md §7).
const (
	// bandwidthWindow is how many diag reports form the ΣTBS window of
	// Eq. 4 when computing the instantaneous uplink bandwidth.
	bandwidthWindow = 10
	// minCongestionBuffer gates the Eq. 3 detector: below this occupancy
	// the PF scheduler still has headroom (the Fig. 5 linear region), so a
	// growing buffer does not mean the uplink is saturated and Eq. 5's
	// "throughput = bandwidth" identity would not hold.
	minCongestionBuffer = 10 * 1024
	// initialTargetBuffer seeds B* before the sweet-spot estimator has
	// learned the knee of the buffer→TBS curve, and bounds the learned
	// knee to [1, 3]× itself.
	initialTargetBuffer = 8 * 1024
	// targetMargin multiplies the learned knee so the buffer sits safely
	// in the high-usage region (§3.3's "sweet spot").
	targetMargin = 1.15
	// minRTPRate / maxRTPRate clamp the Eq. 7 pacing rate; initialRTPRate
	// is the pacing rate before any diagnostics arrive.
	minRTPRate     = 150e3
	maxRTPRate     = 30e6
	initialRTPRate = 3e6
	// minVideoRate floors the encoder rate even under deep congestion.
	minVideoRate = 150e3
)

// FBCCConfig parameterizes Firmware-Buffer-aware Congestion Control: the
// knobs the session ablations vary and the path's RTT.
type FBCCConfig struct {
	// K is the number of consecutive buffer-growth reports required by the
	// congestion test of Eq. 3 (the paper uses 10).
	K int
	// Slack allows this many non-increasing transitions inside the K-report
	// window before the streak resets; the paper's condition is strict, but
	// per-subframe grant noise makes one-sample dips routine on a sampled
	// buffer, so a small slack keeps the detector usable. Slack 0 restores
	// the strict test.
	Slack int
	// HoldRTTs is how long (in RTTs) the encoding rate stays pinned to the
	// measured bandwidth after an overuse, per Eq. 6 (the paper uses 2).
	HoldRTTs float64
	// RTT is the nominal end-to-end round trip used for the hold.
	RTT time.Duration
	// WatchdogReports arms the diag-staleness watchdog: when no diagnostic
	// report has arrived for WatchdogReports × lte.DefaultDiagPeriod, the
	// controller unpins from the measured Rphy, falls back to the embedded
	// GCC rate, and resets the Eq. 3 streak state (the feed it was built on
	// is gone; §4.3.1's "handle congestion elsewhere" degradation). 0
	// disables the watchdog — the paper's prototype, which trusts the feed
	// blindly.
	WatchdogReports int
}

// DefaultFBCCConfig returns the paper's parameters.
func DefaultFBCCConfig(rtt time.Duration) FBCCConfig {
	return FBCCConfig{
		K:               10,
		Slack:           2,
		HoldRTTs:        2,
		RTT:             rtt,
		WatchdogReports: 5,
	}
}

// Validate reports an error for incoherent configurations.
func (c FBCCConfig) Validate() error {
	if c.K < 2 {
		return fmt.Errorf("ratecontrol: FBCC K %d too small", c.K)
	}
	if c.Slack < 0 || c.Slack >= c.K {
		return fmt.Errorf("ratecontrol: FBCC slack %d outside [0, K)", c.Slack)
	}
	if c.HoldRTTs <= 0 || c.RTT <= 0 {
		return fmt.Errorf("ratecontrol: FBCC hold requires positive RTT")
	}
	if c.WatchdogReports < 0 {
		return fmt.Errorf("ratecontrol: FBCC watchdog reports must be non-negative, got %d", c.WatchdogReports)
	}
	return nil
}

// FBCC is the sender-side cross-layer controller (§4.3). Feed it every
// 40 ms diag report via OnDiag; read the encoding bitrate via VideoRate
// (Eq. 6, combining the uplink detector with the embedded end-to-end GCC
// rate) and the pacing rate via RTPRate (Eq. 7).
type FBCC struct {
	cfg FBCCConfig

	// Eq. 3 state.
	lastBuffer  int
	haveLast    bool
	streak      int
	slackUsed   int
	longTerm    metrics.Running // Γ: long-term average buffer level
	congested   bool
	congestedAt time.Duration

	// Eq. 4 window of diag reports.
	tbsWindow fifo.Queue[lte.DiagReport]

	// Eq. 5/6 state.
	rbw       float64 // measured uplink bandwidth at last overuse
	holdUntil time.Duration

	// Eq. 7 state.
	rtpRate   float64
	videoRate float64 // latest encoder rate, floors the pacing rate
	sweet     sweetSpotEstimator

	// Watchdog state.
	lastDiagAt   time.Duration // arrival time of the freshest diag report
	degraded     bool          // true while the diag feed is stale
	degradations int           // watchdog firings since start

	// Diagnostics for traces and tests.
	overuses int

	// probe, when non-nil, receives the controller's lifecycle telemetry
	// (fbcc.trigger / fbcc.pin / fbcc.release / fbcc.watchdog). Probes
	// only observe; a nil probe costs nothing (internal/obs).
	probe *obs.Probe
}

// SetProbe installs the telemetry probe (nil disables). Call before the
// first OnDiag.
func (f *FBCC) SetProbe(p *obs.Probe) { f.probe = p }

// NewFBCC builds the controller.
func NewFBCC(cfg FBCCConfig) (*FBCC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &FBCC{cfg: cfg, rtpRate: initialRTPRate, tbsWindow: fifo.New[lte.DiagReport](bandwidthWindow)}, nil
}

// OnDiag consumes one chipset diagnostic report. It must be called in
// report order; the report cadence defines the Δt of Eq. 3 and the epoch
// Dp of Eq. 7.
func (f *FBCC) OnDiag(rep lte.DiagReport) {
	f.lastDiagAt = rep.At
	f.degraded = false // a fresh report re-arms the cross-layer path
	buf := float64(rep.BufferBytes)
	f.longTerm.Add(buf)

	// --- Eq. 3: congestion detector ---------------------------------
	if f.haveLast {
		if rep.BufferBytes > f.lastBuffer {
			f.streak++
		} else if f.slackUsed < f.cfg.Slack && f.streak > 0 {
			f.slackUsed++ // tolerate an isolated dip inside the streak
		} else {
			f.streak = 0
			f.slackUsed = 0
		}
	}
	f.lastBuffer = rep.BufferBytes
	f.haveLast = true

	// --- Eq. 4 window -------------------------------------------------
	if f.tbsWindow.Len() == bandwidthWindow {
		f.tbsWindow.Pop()
	}
	f.tbsWindow.Push(rep)

	// Sweet-spot learning happens on every report.
	dur := time.Duration(rep.Subframes) * lte.Subframe
	if dur > 0 {
		f.sweet.observe(buf, rep.SumTBSBits/dur.Seconds())
	}

	gamma := f.longTerm.Mean()
	j := f.streak >= f.cfg.K && buf > gamma && buf >= minCongestionBuffer
	if j {
		// Overuse: measure the bandwidth (Eq. 5) and start the 2-RTT hold.
		f.rbw = f.BandwidthEstimate()
		f.congested = true
		f.congestedAt = rep.At
		f.holdUntil = rep.At + time.Duration(f.cfg.HoldRTTs*float64(f.cfg.RTT))
		f.overuses++
		// Telemetry: the Eq. 3 inputs (streak before its reset) and the
		// Eq. 5/6 pin that follows.
		f.probe.Emit(rep.At, obs.FBCCTrigger, buf, gamma, float64(f.streak), 0)
		f.probe.Emit(rep.At, obs.FBCCPin, f.rbw, (f.holdUntil - rep.At).Seconds(), 0, 0)
		f.streak = 0
		f.slackUsed = 0
	} else if rep.At >= f.holdUntil {
		if f.congested {
			// The latched hold expired: the encoder unpins from Rphy.
			f.probe.Emit(rep.At, obs.FBCCRelease, (rep.At - f.congestedAt).Seconds(), f.rbw, 0, 0)
		}
		f.congested = false
	}

	// --- Eq. 7: steer the buffer to the sweet spot ---------------------
	// Rrtp(t) = Rrtp(t−Dp) + (B* − B)/Dp: below B* the pacing rate rises
	// to refill the buffer so the PF scheduler keeps granting at the
	// high-usage rate; above B* it trims the excess. The rate is floored
	// at the current video bitrate so the transport never throttles below
	// the source — that would merely relocate the queue into the
	// application layer and hide congestion from the Eq. 3 detector
	// (§4.3.1's queuing-location argument).
	if dur > 0 {
		adj := (f.TargetBuffer() - buf) * 8 / dur.Seconds() // bits/s correction
		f.rtpRate += adj
		floor := minRTPRate
		if vr := f.videoRate * 1.05; vr > floor {
			floor = vr
		}
		f.rtpRate = clamp(f.rtpRate, floor, maxRTPRate)
	}
}

// SetVideoRate informs the pacing loop of the current encoder bitrate; the
// Eq. 7 rate never falls below it (see OnDiag).
func (f *FBCC) SetVideoRate(rv float64) {
	if rv > 0 {
		f.videoRate = rv
	}
}

// BandwidthEstimate returns the Eq. 4 windowed PHY throughput (ΣTBS over
// the report window divided by its duration), the paper's Rphy.
func (f *FBCC) BandwidthEstimate() float64 {
	// Eq. 4/5 are float sums: add in report order, oldest first.
	var bits float64
	var sub int
	for i := 0; i < f.tbsWindow.Len(); i++ {
		r := f.tbsWindow.At(i)
		bits += r.SumTBSBits
		sub += r.Subframes
	}
	dur := time.Duration(sub) * lte.Subframe
	if dur <= 0 {
		return 0
	}
	return bits / dur.Seconds()
}

// VideoRate implements Eq. 6: during the post-overuse hold the encoder is
// pinned to the measured uplink bandwidth; otherwise the embedded
// end-to-end controller's rate rgcc applies (handling congestion
// elsewhere, or no congestion).
//
// The hold interval is half-open — [congestedAt, holdUntil) — on the same
// side as OnDiag's latch release (which clears congested once
// rep.At >= holdUntil), so at the boundary instant itself both paths agree
// the hold is over.
func (f *FBCC) VideoRate(now time.Duration, rgcc float64) float64 {
	var r float64
	if now < f.holdUntil && f.rbw > 0 {
		r = f.rbw
	} else {
		r = rgcc
	}
	return max(minVideoRate, r)
}

// CheckWatchdog evaluates the diag-staleness watchdog at now and reports
// whether the controller is currently degraded to its embedded GCC. On the
// transition into staleness it unpins from Rphy (cancels any hold), resets
// the Eq. 3 streak state and the Eq. 4 window (their samples describe a
// link state that is now unknown), and re-seeds the Eq. 7 pacing rate —
// the caller should drive the pacer from the GCC rate until reports resume.
// With WatchdogReports == 0 the watchdog is disarmed and CheckWatchdog
// always reports false.
func (f *FBCC) CheckWatchdog(now time.Duration) bool {
	if f.cfg.WatchdogReports <= 0 {
		return false
	}
	if !f.DiagStale(now) {
		return f.degraded // cleared by the next OnDiag
	}
	if !f.degraded {
		f.degraded = true
		f.degradations++
		// Telemetry first: the abort must carry the silence that tripped
		// the watchdog, and the episode analyzer reads this event as the
		// end of any open congestion episode.
		f.probe.Emit(now, obs.FBCCWatchdog, (now - f.lastDiagAt).Seconds(), 0, 0, 0)
		// Unpin Eq. 6: no hold survives a dead feed.
		f.congested = false
		f.holdUntil = 0
		f.rbw = 0
		// Reset Eq. 3: the streak would otherwise resume against a
		// pre-stall buffer sample.
		f.streak = 0
		f.slackUsed = 0
		f.haveLast = false
		// Reset Eq. 4: windowed TBS from before the stall is not current
		// bandwidth.
		f.tbsWindow.Reset()
		// Re-seed Eq. 7 so the pacing loop restarts from a sane rate when
		// the feed returns instead of integrating from a stale one.
		f.rtpRate = initialRTPRate
	}
	return true
}

// DiagStale reports whether the diag feed has been silent longer than the
// watchdog timeout at now (pure check; no state change).
func (f *FBCC) DiagStale(now time.Duration) bool {
	if f.cfg.WatchdogReports <= 0 {
		return false
	}
	return now-f.lastDiagAt > time.Duration(f.cfg.WatchdogReports)*lte.DefaultDiagPeriod
}

// Degradations counts watchdog firings since start.
func (f *FBCC) Degradations() int { return f.degradations }

// RTPRate returns the Eq. 7 pacing rate.
func (f *FBCC) RTPRate() float64 { return f.rtpRate }

// Overuses counts detector firings since start.
func (f *FBCC) Overuses() int { return f.overuses }

// TargetBuffer returns B*, the sweet-spot buffer level currently targeted
// by the Eq. 7 loop.
func (f *FBCC) TargetBuffer() float64 {
	return f.sweet.target() * targetMargin
}

// sweetSpotEstimator learns the knee of the buffer→TBS curve online: the
// smallest buffer level at which the observed service rate stops growing.
// It buckets buffer levels at 2 KB granularity and keeps an EWMA of the
// rate per bucket.
type sweetSpotEstimator struct {
	buckets [32]float64 // EWMA of rate, bucket b covers [2KB·b, 2KB·(b+1))
	seen    [32]bool
}

const sweetBucketBytes = 2048

func (s *sweetSpotEstimator) observe(bufferBytes, rate float64) {
	if bufferBytes <= 0 || rate <= 0 {
		return
	}
	b := int(bufferBytes / sweetBucketBytes)
	if b >= len(s.buckets) {
		b = len(s.buckets) - 1
	}
	if !s.seen[b] {
		s.buckets[b] = rate
		s.seen[b] = true
		return
	}
	s.buckets[b] += 0.05 * (rate - s.buckets[b])
}

// target returns the learned knee in bytes, or initialTargetBuffer before
// enough of the curve has been explored.
func (s *sweetSpotEstimator) target() float64 {
	max := 0.0
	for b, r := range s.buckets {
		if s.seen[b] && r > max {
			max = r
		}
	}
	if max == 0 {
		return initialTargetBuffer
	}
	for b, r := range s.buckets {
		if s.seen[b] && r >= 0.9*max {
			knee := float64(b+1) * sweetBucketBytes
			// Bound the learned knee: a low-buffer fluke must not collapse
			// the target into the starvation region, and an outlier must
			// not push it deep into the overuse region.
			if knee < initialTargetBuffer {
				knee = initialTargetBuffer
			}
			if knee > 3*initialTargetBuffer {
				knee = 3 * initialTargetBuffer
			}
			return knee
		}
	}
	return initialTargetBuffer
}
