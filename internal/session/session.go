// Package session holds the two endpoints of a POI360 call and their
// composition. A Sender is the 360° source, a spatial-compression
// controller, the encoder, the RTP pacer and the transport rate control; a
// Viewer is frame reassembly, the head-motion model, the mismatch estimator
// and receiver-side GCC; the Feedback message (ROI, mismatch time M, GCC
// rate) closes the loop between them. A Session is the two on one clock
// over a simulated transport (LTE uplink + core path, or wireline),
// instrumented with every metric the paper's evaluation reports.
package session

import (
	"fmt"
	"time"

	"poi360/internal/faults"
	"poi360/internal/headmotion"
	"poi360/internal/lte"
	"poi360/internal/metrics"
	"poi360/internal/netsim"
	"poi360/internal/obs"
	"poi360/internal/rtp"
	"poi360/internal/simclock"
	"poi360/internal/video"
)

// NetworkKind selects the access network under test.
type NetworkKind int

// Supported networks.
const (
	Cellular NetworkKind = iota
	Wireline
)

func (n NetworkKind) String() string {
	if n == Wireline {
		return "wireline"
	}
	return "cellular"
}

// SchemeKind selects the spatial-compression controller.
type SchemeKind int

// Supported compression schemes.
const (
	SchemeAdaptive SchemeKind = iota // POI360
	SchemeConduit
	SchemePyramid
	SchemeFixed // single Eq. 1 mode (ablation); set Config.FixedC
)

func (s SchemeKind) String() string {
	switch s {
	case SchemeConduit:
		return "Conduit"
	case SchemePyramid:
		return "Pyramid"
	case SchemeFixed:
		return "Fixed"
	default:
		return "POI360"
	}
}

// RCKind selects the transport rate control.
type RCKind int

// Supported rate controllers.
const (
	RCGCC RCKind = iota
	RCFBCC
)

func (r RCKind) String() string {
	if r == RCFBCC {
		return "FBCC"
	}
	return "GCC"
}

// Config describes one telephony session.
type Config struct {
	Duration time.Duration

	Network NetworkKind
	Cell    lte.CellProfile    // used when Network == Cellular
	Path    netsim.PathProfile // zero value → default for the network kind

	Video video.Config // zero value → video.DefaultConfig()

	Scheme SchemeKind
	FixedC float64 // for SchemeFixed

	RC RCKind

	User      headmotion.Profile // ignored when UserModel set
	UserModel headmotion.Model   // optional explicit head-motion model

	Seed int64

	// PipelineDelay is the constant capture→encode plus decode→display
	// processing latency added to the measured frame delay (the prototype's
	// browser pipeline; §5 reports it comparable to conventional WebRTC
	// telephony). Zero means the default of 250 ms — a 2017 phone running
	// 4K canvas capture, VP8 encode, decode and WebGL stereo rendering in
	// a browser. A negative value means an explicitly zero-delay pipeline
	// (mirroring StatsWarmup's < 0 sentinel).
	PipelineDelay time.Duration

	// StatsWarmup excludes measurements recorded before this instant so
	// steady-state statistics are not polluted by the rate controller's
	// start-up ramp. Defaults to min(10 s, Duration/6).
	StatsWarmup time.Duration

	// ROIPrediction enables the §8 motion-based ROI predictor at the
	// sender: the compression matrix is centered on the extrapolated
	// viewer orientation instead of the last reported one. The paper
	// argues the reliable prediction horizon (~120 ms) is below mobile
	// interactive latency; the abl-predict experiment measures that.
	ROIPrediction bool

	// Faults is the scripted disturbance timeline for this session: diag
	// stalls, reverse-feedback drop/duplicate/delay windows, handover-style
	// outages, capacity steps, and ROI-belief freezes (internal/faults).
	// The zero value injects nothing. Scripts contain no randomness, so a
	// faulted session is exactly as deterministic as an unfaulted one.
	Faults faults.Script

	// Ablation knobs (zero values keep the paper's design).
	FBCCK          int     // override Eq. 3 K
	FBCCHoldRTTs   float64 // override the 2-RTT hold
	DisableRTPLoop bool    // FBCC without the Eq. 7 sweet-spot loop

	// FBCCWatchdogReports overrides the diag-staleness watchdog window
	// (N reports of silence before FBCC degrades to its embedded GCC).
	// 0 keeps the default (5 reports = 200 ms); a negative value disables
	// the watchdog — the paper's prototype behaviour, which trusts the
	// diag feed blindly.
	FBCCWatchdogReports int

	// Obs, when non-nil, threads the telemetry bus (internal/obs) through
	// every layer of this session: frame pipeline, mode switches, FBCC and
	// GCC lifecycle, LTE grants/diagnostics, network-link events, and the
	// fault script's activation windows. Probes only observe — a session
	// runs trajectory-identically with Obs set or nil, and a nil probe
	// costs zero allocations on the emit path. For shared-cell scenarios
	// use MultiConfig.Obs instead (per-session probes derive from one bus).
	Obs *obs.Probe
}

// withDefaults fills a Config's zero fields with the documented defaults
// and validates the result. It returns a copy.
func (c Config) withDefaults() (Config, error) {
	if c.Duration <= 0 {
		c.Duration = 60 * time.Second
	}
	if c.Video.FPS == 0 {
		c.Video = video.DefaultConfig()
	}
	if err := c.Video.Validate(); err != nil {
		return c, err
	}
	if c.Path.Name == "" {
		if c.Network == Cellular {
			c.Path = netsim.CellularPath
		} else {
			c.Path = netsim.WirelinePath
		}
	}
	if c.Cell == (lte.CellProfile{}) {
		c.Cell = lte.ProfileStrongIdle
	}
	if c.User.Name == "" {
		c.User = headmotion.Users[1]
	}
	if c.PipelineDelay == 0 {
		c.PipelineDelay = 250 * time.Millisecond
	}
	if c.PipelineDelay < 0 {
		c.PipelineDelay = 0 // explicit zero-delay pipeline
	}
	if err := c.Faults.Validate(); err != nil {
		return c, fmt.Errorf("session: %w", err)
	}
	if c.StatsWarmup == 0 {
		c.StatsWarmup = 10 * time.Second
		if c.Duration/6 < c.StatsWarmup {
			c.StatsWarmup = c.Duration / 6
		}
	}
	if c.StatsWarmup < 0 {
		c.StatsWarmup = 0 // explicit "no warmup"
	}
	if c.Network == Wireline && c.RC == RCFBCC {
		return c, fmt.Errorf("session: FBCC needs LTE modem diagnostics; use the cellular network")
	}
	if c.Scheme == SchemeFixed && c.FixedC <= 1 {
		return c, fmt.Errorf("session: SchemeFixed requires FixedC > 1, got %g", c.FixedC)
	}
	return c, nil
}

// DiagSample is one modem diagnostic observation kept for Figs. 5/6/15.
type DiagSample struct {
	At          time.Duration
	BufferBytes int
	TBSRate     float64 // bits/s over the report interval
}

// Result aggregates everything measured in a session.
type Result struct {
	Config Config

	// Per delivered frame, in delivery order.
	FrameDelays []time.Duration
	ROIPSNRs    []float64
	ROILevels   []metrics.TimedSample // effective compression level at the displayed ROI
	Mismatch    []metrics.TimedSample // window-averaged M fed back, seconds
	Modes       []metrics.TimedSample // sender mode index at each frame (adaptive only)

	// Rates.
	VideoRate  []metrics.TimedSample // encoder target Rv, bits/s
	RTPRate    []metrics.TimedSample // pacer rate Rrtp, bits/s
	Throughput []float64             // received bits/s, one sample per second

	// Modem diagnostics (cellular only).
	Diag []DiagSample

	FramesSent      int
	FramesDelivered int
	FramesLost      int
	PacketDrops     int64

	FBCCOveruses int
	// FBCCDegradations counts diag-staleness watchdog firings: each is one
	// fall-back from the cross-layer path to the embedded GCC.
	FBCCDegradations int
	// StaleFeedback counts reverse-path messages discarded by the
	// feedback-staleness guard (held mode instead of integrating garbage).
	StaleFeedback int
	// BadFeedback counts feedback messages the sender rejected (ROI outside
	// the tile grid, or a GCC rate outside [ratecontrol.GCCMinRate,
	// ratecontrol.GCCMaxRate]) and BadPackets media
	// packets the viewer rejected (sender ROI outside the grid, or a scale
	// below 1). Both stay zero unless the input crossed a real network.
	BadFeedback, BadPackets int
	// DiagStalled counts modem diagnostic reports suppressed by the fault
	// script (cellular only).
	DiagStalled int64
}

// FreezeRatio returns the fraction of frames frozen per the paper's
// definition: delivered later than 600 ms, or never delivered.
func (r *Result) FreezeRatio() float64 {
	total := len(r.FrameDelays) + r.FramesLost
	if total == 0 {
		return 0
	}
	n := r.FramesLost
	for _, d := range r.FrameDelays {
		if d > metrics.FreezeThreshold {
			n++
		}
	}
	return float64(n) / float64(total)
}

// PSNRSummary summarizes the per-frame ROI PSNR.
func (r *Result) PSNRSummary() metrics.Summary { return metrics.Summarize(r.ROIPSNRs) }

// MOSPDF returns the MOS band distribution of delivered frames.
func (r *Result) MOSPDF() [5]float64 { return metrics.MOSPDF(r.ROIPSNRs) }

// DelaySummary summarizes per-frame delays in milliseconds.
func (r *Result) DelaySummary() metrics.Summary {
	ms := make([]float64, len(r.FrameDelays))
	for i, d := range r.FrameDelays {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return metrics.Summarize(ms)
}

// LevelStability returns the Fig. 12 metric: per-frame std of the displayed
// ROI compression level over a trailing 2 s window.
func (r *Result) LevelStability() []float64 {
	return metrics.WindowStd(r.ROILevels, 2*time.Second)
}

// ThroughputSummary summarizes the per-second received throughput.
func (r *Result) ThroughputSummary() metrics.Summary { return metrics.Summarize(r.Throughput) }

// obsEventsPerSecond is the event-stream capacity hint per simulated
// second used when a sender reserves bus storage at Attach: roughly one
// grant per subframe opportunity plus diag/GCC/frame-lifecycle events of a
// busy cellular FBCC session. A hint, not a bound — heavier scripts just
// fall back to append growth.
const obsEventsPerSecond = 256

// Session is one POI360 telephony endpoint pair: a Sender and a Viewer
// built from one Config, recording into one Result and riding one
// scheduler, with the transport's reverse path as their data channel.
// Build with New, then Attach to an externally owned scheduler and
// transport — a private simulation clock, as Run does, a shared cell's, as
// RunShared does, or any other simclock.Scheduler backend — run the
// scheduler, and collect Result. Two processes joined by a real network run
// the halves on their own instead (cmd/poi360-live).
//
// A Session shares nothing with other sessions except what it is attached
// to, so any number of sessions can ride one clock — the multi-user
// shared-cell scenario — or each own a private clock and run concurrently
// on different goroutines (the parallel experiment engine's contract).
type Session struct {
	sender *Sender
	viewer *Viewer
}

// newResult builds a Result with every per-sample slice preallocated to
// the session's steady-state sample count, so recording during the run
// never grows a slice (the BenchmarkSessionAllocs budget counts on this).
// Capacities come from the measurement window (Duration − StatsWarmup) at
// the known cadences: one sample per frame interval for frame-indexed
// series, one per second for throughput, one per 40 ms modem diagnostic
// report for Diag. The +2 headroom absorbs boundary ticks; a fault script
// that perturbs cadence merely falls back to append growth.
func newResult(cfg Config) *Result {
	window := cfg.Duration - cfg.StatsWarmup
	if window < 0 {
		window = 0
	}
	frames := int(window/cfg.Video.FrameInterval()) + 2
	return &Result{
		Config:      cfg,
		FrameDelays: make([]time.Duration, 0, frames),
		ROIPSNRs:    make([]float64, 0, frames),
		ROILevels:   make([]metrics.TimedSample, 0, frames),
		Mismatch:    make([]metrics.TimedSample, 0, frames),
		Modes:       make([]metrics.TimedSample, 0, frames),
		VideoRate:   make([]metrics.TimedSample, 0, frames),
		RTPRate:     make([]metrics.TimedSample, 0, frames),
		Throughput:  make([]float64, 0, int(window/time.Second)+2),
		Diag:        make([]DiagSample, 0, int(window/lte.DefaultDiagPeriod)+2),
	}
}

// New builds a session's two endpoints from cfg (applying the documented
// defaults). The session owns no clock and no transport until Attach.
func New(cfg Config) (*Session, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	res := newResult(cfg)
	viewer, err := newViewer(cfg, res)
	if err != nil {
		return nil, err
	}
	sender, err := newSender(cfg, res)
	if err != nil {
		return nil, err
	}
	// Call set-up: the sender starts out knowing where the viewer looks.
	sender.roiBelief = cfg.Video.Grid.TileAt(viewer.user.At(0))
	return &Session{sender: sender, viewer: viewer}, nil
}

// Config returns the session's resolved configuration (defaults applied).
func (s *Session) Config() Config { return s.sender.cfg }

// DeliverForward is the transport's forward-path terminus: it must be
// invoked (on the simulation goroutine) with each rtp.Packet payload that
// survives the network. Wire it as the transport's deliverFwd callback.
func (s *Session) DeliverForward(p any) {
	pkt := p.(*rtp.Packet)
	s.viewer.OnPacket(pkt)
	s.sender.recycle(pkt)
}

// DeliverFeedback is the reverse-path terminus: it must be invoked with
// each feedback payload arriving at the sender. Wire it as the
// transport's deliverRev callback.
func (s *Session) DeliverFeedback(p any) { s.sender.OnFeedback(p.(Feedback)) }

// Attach binds both endpoints to an externally owned scheduler and
// transport and starts the viewer's feedback loop over the transport's
// reverse path. The transport's forward and reverse deliveries must
// already be wired to DeliverForward / DeliverFeedback. Attach must be
// called exactly once, before the clock runs.
func (s *Session) Attach(clk simclock.Scheduler, transport netsim.Transport) error {
	if err := s.sender.Attach(clk, transport); err != nil {
		return err
	}
	// Same cadence as frames (§5).
	clk.Ticker(s.sender.cfg.Video.FrameInterval(), func() {
		transport.SendFeedback(s.viewer.Feedback(clk.Now()))
	})
	return s.viewer.Attach(clk)
}

// Result finalizes and returns the session's measurements. Call it after
// the attached clock has run to the session's Duration; it is idempotent.
func (s *Session) Result() *Result {
	s.sender.Result()
	return s.viewer.Result()
}

// Run executes a session to completion and returns its measurements. It
// is the single-user convenience wrapper over the Session component: it
// builds a private clock and a private transport (a 1-UE cell for
// Cellular, the campus queue for Wireline), attaches, and runs — so
// existing callers see one function while multi-user scenarios attach
// Sessions to a shared clock and cell via RunShared.
//
// Run is safe for concurrent use: every run builds its own simulation
// clock, RNGs, transports, and controllers from cfg and shares nothing
// with other runs (the parallel experiment engine relies on this). For a
// given cfg — including Seed — the returned Result is deeply identical
// across runs.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	cfg = s.Config()
	clk := simclock.New()

	var transport netsim.Transport
	if cfg.Network == Cellular {
		lcfg := lte.DefaultConfig(cfg.Cell)
		lcfg.Profile.Seed = DeriveStream(cfg.Seed, "lte")
		if !cfg.Faults.Empty() {
			// The script is an immutable value; its query methods are pure
			// functions of the instant, so these hooks keep the uplink
			// deterministic.
			lcfg.CapacityFault = cfg.Faults.CapacityFactor
			lcfg.DiagFault = cfg.Faults.DiagStalled
		}
		cell, err := netsim.NewCellular(clk, lcfg, cfg.Path, s.DeliverForward, s.DeliverFeedback)
		if err != nil {
			return nil, err
		}
		transport = cell
	} else {
		transport = netsim.NewWireline(clk, DeriveStream(cfg.Seed, "path"), cfg.Path, s.DeliverForward, s.DeliverFeedback)
	}

	if err := s.Attach(clk, transport); err != nil {
		return nil, err
	}
	clk.Run(cfg.Duration)
	return s.Result(), nil
}
