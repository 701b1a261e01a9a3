package session

import (
	"fmt"
	"time"

	"poi360/internal/compress"
	"poi360/internal/headmotion"
	"poi360/internal/lte"
	"poi360/internal/metrics"
	"poi360/internal/netsim"
	"poi360/internal/obs"
	"poi360/internal/projection"
	"poi360/internal/ratecontrol"
	"poi360/internal/rtp"
	"poi360/internal/simclock"
	"poi360/internal/video"
)

// Feedback is the WebRTC-data-channel message the viewer returns every
// frame interval (§5): current ROI, the averaged mismatch time, and the
// receiver-side GCC target rate. It is the one message both directions
// speak: Viewer.Feedback builds it, Sender.OnFeedback integrates it, and
// whatever sits between them — a simulated reverse link carrying it by
// value, or the live 56-byte report — only transports it.
type Feedback struct {
	ROI         projection.Tile
	Orientation projection.Orientation // a carrier that ships only the tile reports its centre
	Mismatch    time.Duration          // window-averaged M
	GCCRate     float64                // bits/s
	SentAt      time.Duration          // send instant on the sender's clock, for the staleness guard
}

// Sender is the sending phone of §5: the 360° source, the compression
// controller steered by the viewer's feedback, the encoder, the RTP pacer,
// and the transport rate control (FBCC fed by the modem diagnostics, or the
// viewer's GCC rate). Build with NewSender, Attach to a scheduler and a
// transport, route every arriving Feedback to OnFeedback, run the scheduler
// and collect Result. The simulator composes it with a Viewer in a Session;
// cmd/poi360-live attaches it to simclock.Wall and realnet.Transport.
type Sender struct {
	cfg Config
	res *Result

	clk       simclock.Scheduler
	transport netsim.Transport

	source     *video.Source
	controller compress.Controller
	fbcc       *ratecontrol.FBCC
	predictor  *headmotion.Predictor
	roiBelief  projection.Tile
	rgcc       float64
	pacer      *rtp.Pacer

	probe    *obs.Probe
	lastMode int // previous adaptive mode index, -1 before the first frame

	// pktScratch is the per-frame packetize arena, reused across ticks so
	// the steady-state frame loop performs no per-frame slice allocations
	// (Pacer.Enqueue copies packets in). pktFree pools the boxed
	// forward-path packets (see recycle).
	pktScratch []rtp.Packet
	pktFree    []*rtp.Packet
}

// NewSender builds a sending endpoint from cfg (applying the documented
// defaults). It owns no clock and no transport until Attach. Before the
// first feedback arrives it believes the viewer looks straight ahead.
func NewSender(cfg Config) (*Sender, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return newSender(cfg, newResult(cfg))
}

// newSender builds the sender on an already resolved cfg, recording into
// res (a Session shares one Result between its two halves).
func newSender(cfg Config, res *Result) (*Sender, error) {
	s := &Sender{cfg: cfg, res: res, probe: cfg.Obs, lastMode: -1}
	g := cfg.Video.Grid
	var err error
	vcfg := cfg.Video
	vcfg.Seed = DeriveStream(cfg.Seed, "video")
	s.source = video.NewSource(vcfg)
	s.controller, err = makeController(cfg, g)
	if err != nil {
		return nil, err
	}
	if cfg.RC == RCFBCC {
		fcfg := ratecontrol.DefaultFBCCConfig(cfg.Path.NominalRTT())
		if cfg.FBCCK > 0 {
			fcfg.K = cfg.FBCCK
		}
		if cfg.FBCCHoldRTTs > 0 {
			fcfg.Hold = time.Duration(cfg.FBCCHoldRTTs * float64(cfg.Path.NominalRTT()))
		}
		switch {
		case cfg.FBCCWatchdogReports > 0:
			fcfg.WatchdogReports = cfg.FBCCWatchdogReports
		case cfg.FBCCWatchdogReports < 0:
			fcfg.WatchdogReports = 0 // watchdog disabled (paper prototype)
		}
		s.fbcc, err = ratecontrol.NewFBCC(fcfg)
		if err != nil {
			return nil, err
		}
		s.fbcc.SetProbe(s.probe)
	}
	s.predictor = headmotion.NewPredictor()
	s.roiBelief = g.TileAt(projection.Orientation{})
	s.rgcc = ratecontrol.DefaultGCCConfig().InitialRate
	return s, nil
}

// Config returns the sender's resolved configuration (defaults applied).
func (s *Sender) Config() Config { return s.cfg }

// getPkt / recycle run the forward-path packet free list. Packets the
// transport keeps (a live transport marshals and forgets them) or drops
// after accepting them simply never come back — the pool regrows by
// allocation.
func (s *Sender) getPkt() *rtp.Packet {
	if n := len(s.pktFree); n > 0 {
		p := s.pktFree[n-1]
		s.pktFree = s.pktFree[:n-1]
		return p
	}
	return new(rtp.Packet)
}

func (s *Sender) recycle(p *rtp.Packet) {
	*p = rtp.Packet{} // drop the frame reference while pooled
	s.pktFree = append(s.pktFree, p)
}

// feedbackStaleAfter is the session-level feedback-staleness guard: a
// reverse-path message older than this when it arrives is discarded (the
// sender holds its last ROI belief, mismatch estimate and GCC rate)
// instead of being integrated as if current. 500 ms is comfortably above
// the worst natural reverse-path latency, below the disturbance delays
// worth guarding against.
const feedbackStaleAfter = 500 * time.Millisecond

// OnFeedback is the reverse-path terminus: invoke it (on the scheduler
// goroutine) with each feedback message arriving at the sender.
func (s *Sender) OnFeedback(fb Feedback) {
	// The message may have crossed a real network: an ROI outside the grid
	// would index past the Eq. 1 matrix tables on the next frame, and a
	// rate outside the bounds every GCCReceiver clamps to would zero the
	// encoder budget or let the pacer queue grow without limit.
	rateOK := fb.GCCRate >= ratecontrol.GCCMinRate && fb.GCCRate <= ratecontrol.GCCMaxRate // false for NaN
	if !s.cfg.Video.Grid.Contains(fb.ROI) || !rateOK {
		s.res.BadFeedback++
		return
	}
	now := s.clk.Now()
	// Feedback-staleness guard: a message that spent too long on the
	// reverse path describes a viewer state the session has moved past.
	// Integrating its M into the mode controller or adopting its ROI
	// would steer on garbage — hold the last belief instead and wait
	// for a fresh message (the degradation the fault scripts probe).
	if now-fb.SentAt > feedbackStaleAfter {
		s.res.StaleFeedback++
		s.probe.Emit(now, obs.FeedbackStale, (now - fb.SentAt).Seconds(), 0, 0, 0)
		return
	}
	if !s.cfg.Faults.ROIFrozen(now) {
		s.roiBelief = fb.ROI
		s.predictor.Observe(now, fb.Orientation)
	}
	s.controller.ObserveMismatch(fb.Mismatch)
	s.rgcc = fb.GCCRate
}

// Attach binds the sender to an externally owned scheduler and transport
// and registers its periodic activity (frame capture, pacing, the diag
// listener) on clk. Attach must be called exactly once, before the clock
// runs.
func (s *Sender) Attach(clk simclock.Scheduler, transport netsim.Transport) error {
	if s.clk != nil {
		return fmt.Errorf("session: Attach called twice")
	}
	s.clk = clk
	s.transport = transport
	cfg := s.cfg
	res := s.res

	if !cfg.Faults.Empty() {
		transport.SetFeedbackFault(cfg.Faults.FeedbackFate)
	}

	// Telemetry: hand the probe to the transport stack (type-asserted so
	// the Transport interface stays unchanged — the same pattern Result
	// uses for DiagStalled) and mark the fault script's windows. Both are
	// pure observation: with Obs nil neither happens, and with Obs set the
	// simulated trajectory is identical.
	if s.probe != nil {
		if tp, ok := transport.(interface{ SetProbe(*obs.Probe) }); ok {
			tp.SetProbe(s.probe)
		}
		if !cfg.Faults.Empty() {
			cfg.Faults.Announce(clk, s.probe)
		}
		// Reserve bus storage up front: a busy cellular session emits on
		// the order of obsEventsPerSecond events per second (grants, diag,
		// GCC deltas, frame lifecycle), and reserving once removes the
		// per-Emit append-growth bytes the session benchmarks measured.
		s.probe.Grow(int(cfg.Duration/time.Second+1) * obsEventsPerSecond)
	}

	initialRate := s.rgcc
	if s.fbcc != nil {
		initialRate = s.fbcc.RTPRate()
	}
	s.pacer = rtp.NewPacer(clk, rtp.DefaultPacerTick, initialRate, func(pkt rtp.Packet) bool {
		// Box a pooled pointer instead of the packet value: the interface
		// conversion for a value payload allocates once per packet, and the
		// forward path delivers each payload at most once (faults install
		// only on the reverse link), so its terminus can recycle it.
		p := s.getPkt()
		*p = pkt
		if !transport.Send(p.Bytes, p) {
			s.recycle(p)
			return false
		}
		return true
	})

	// Modem diagnostics → FBCC + traces.
	transport.SetDiagListener(func(rep lte.DiagReport) {
		dur := time.Duration(rep.Subframes) * lte.Subframe
		rate := 0.0
		if dur > 0 {
			rate = rep.SumTBSBits / dur.Seconds()
		}
		if rep.At >= cfg.StatsWarmup {
			res.Diag = append(res.Diag, DiagSample{At: rep.At, BufferBytes: rep.BufferBytes, TBSRate: rate})
		}
		if s.fbcc != nil {
			s.fbcc.OnDiag(rep)
			if !cfg.DisableRTPLoop {
				s.pacer.SetRate(s.fbcc.RTPRate())
			}
		}
	})

	clk.Ticker(cfg.Video.FrameInterval(), s.frame)
	return nil
}

// frame runs once per frame interval: capture, compress around the current
// ROI belief, encode against the rate controller's budget, and hand the
// packets to the pacer.
func (s *Sender) frame() {
	cfg := &s.cfg
	now := s.clk.Now()
	frame := s.source.NextFrame(now)
	roiUsed := s.roiBelief
	if cfg.ROIPrediction {
		// Aim the matrix at where the viewer will be looking when this
		// frame is displayed (one pipeline + core-path delay ahead),
		// bounded by the predictor's reliable horizon.
		target := now + cfg.PipelineDelay + cfg.Path.CoreBase
		roiUsed = cfg.Video.Grid.TileAt(s.predictor.Predict(target))
	}
	matrix, mode := s.controller.Levels(roiUsed)

	rv := s.rgcc
	if s.fbcc != nil {
		degraded := s.fbcc.CheckWatchdog(now)
		rv = s.fbcc.VideoRate(now, s.rgcc)
		s.fbcc.SetVideoRate(rv)
		if degraded && !cfg.DisableRTPLoop {
			// Diag-staleness fallback: with the modem feed silent the
			// Eq. 7 loop gets no updates, so the pacer follows the
			// embedded GCC exactly as a plain WebRTC sender would,
			// until reports resume and OnDiag re-arms the loop.
			s.pacer.SetRate(ratecontrol.GCCPacingFactor * rv)
		}
	}
	budget := rv / float64(cfg.Video.FPS)
	ef := video.Encode(&frame, matrix, budget, roiUsed, mode, cfg.Video.MaxScale)
	// Packetize into the scratch arena; Pacer.Enqueue copies the packets,
	// so the arena is free for reuse on the next frame tick.
	s.pktScratch = rtp.AppendPackets(s.pktScratch, &ef)
	pkts := s.pktScratch
	s.pacer.Enqueue(pkts)

	if s.probe != nil {
		if mode != s.lastMode && s.lastMode >= 0 {
			s.probe.Emit(now, obs.ModeSwitch, float64(s.lastMode), float64(mode), 0, 0)
		}
		s.probe.Emit(now, obs.FrameEncode, float64(mode), rv, ef.Bits, 0)
		s.probe.Emit(now, obs.FrameSend, ef.Bits, float64(len(pkts)), s.pacer.Rate(), 0)
	}
	s.lastMode = mode

	switch {
	case s.fbcc == nil:
		// WebRTC's default: RTP sending rate tracks the video bitrate
		// (§3.3) — the behaviour that starves the firmware buffer. The
		// real pacer applies a modest pacing factor so a transient
		// backlog in the video buffer can drain.
		s.pacer.SetRate(ratecontrol.GCCPacingFactor * rv)
	case cfg.DisableRTPLoop:
		// Ablation: strictly match Rrtp to Rv as §3.3 describes —
		// no sweet-spot steering, no pacing headroom.
		s.pacer.SetRate(rv)
	}

	if now >= cfg.StatsWarmup {
		s.res.FramesSent++
		s.res.VideoRate = append(s.res.VideoRate, metrics.TimedSample{At: now, V: rv})
		s.res.RTPRate = append(s.res.RTPRate, metrics.TimedSample{At: now, V: s.pacer.Rate()})
		s.res.Modes = append(s.res.Modes, metrics.TimedSample{At: now, V: float64(mode)})
	}
}

// Result finalizes the sender's share of the measurements — frames sent,
// pacer drops, the rate traces, the diag samples and the rate-control
// counters — and returns them. Call it after the attached clock has run.
func (s *Sender) Result() *Result {
	res := s.res
	res.PacketDrops = s.pacer.Drops()
	if s.fbcc != nil {
		res.FBCCOveruses = s.fbcc.Overuses()
		res.FBCCDegradations = s.fbcc.Degradations()
	}
	if ds, ok := s.transport.(interface{ DiagStalled() int64 }); ok {
		res.DiagStalled = ds.DiagStalled()
	}
	// Registry gauges: the headline numbers at finalize, so a bus table
	// doubles as a one-glance summary.
	if s.probe != nil {
		s.probe.SetGauge("frames_sent", float64(res.FramesSent))
		s.probe.SetGauge("packet_drops", float64(res.PacketDrops))
		s.probe.SetGauge("stale_feedback", float64(res.StaleFeedback))
		if s.fbcc != nil {
			s.probe.SetGauge("fbcc_overuses", float64(res.FBCCOveruses))
			s.probe.SetGauge("fbcc_degradations", float64(res.FBCCDegradations))
		}
	}
	return res
}

func makeController(cfg Config, g projection.Grid) (compress.Controller, error) {
	switch cfg.Scheme {
	case SchemeAdaptive:
		return compress.NewAdaptive(g), nil
	case SchemeConduit:
		return compress.NewConduit(g), nil
	case SchemePyramid:
		return compress.NewPyramid(g), nil
	case SchemeFixed:
		return compress.NewFixed(g, cfg.FixedC), nil
	default:
		return nil, fmt.Errorf("session: unknown scheme %d", cfg.Scheme)
	}
}
