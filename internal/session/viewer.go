package session

import (
	"fmt"
	"time"

	"poi360/internal/compress"
	"poi360/internal/headmotion"
	"poi360/internal/metrics"
	"poi360/internal/obs"
	"poi360/internal/projection"
	"poi360/internal/ratecontrol"
	"poi360/internal/rtp"
	"poi360/internal/simclock"
)

// mismatchWindow is the sliding window the viewer averages M over.
const mismatchWindow = 500 * time.Millisecond

// Viewer is the viewing phone of §5: frame reassembly, the head-motion
// model standing in for the person wearing the headset, per-frame ROI
// quality and delay measurement, the mismatch estimator behind M, and the
// receiver side of GCC. Build with NewViewer, Attach to a scheduler, hand
// every arriving media packet to OnPacket and send what Feedback returns
// back to the sender once per feedback interval. The simulator composes it
// with a Sender in a Session; cmd/poi360-live feeds it from
// realnet.Receiver.
type Viewer struct {
	cfg Config
	res *Result
	clk simclock.Scheduler

	user     headmotion.Model
	mismatch *compress.MismatchEstimator
	gccRx    *ratecontrol.GCCReceiver
	lastM    time.Duration
	// scheme is the sender's compression scheme and flat the all-ones
	// level map, for frames that arrive without their matrix (see
	// OnPacket). The viewer only resolves labels through scheme.
	scheme compress.Controller
	flat   []float64

	reasm      *rtp.Reassembler
	lostSeen   int64 // reasm.Lost() already accounted for
	secondBits float64

	probe *obs.Probe

	// visScratch is handed to ROIPSNRScratch and taken back (possibly
	// grown) every frame, so the display path allocates no tile slices.
	visScratch []projection.Tile
}

// NewViewer builds a viewing endpoint from cfg (applying the documented
// defaults). It owns no clock until Attach.
func NewViewer(cfg Config) (*Viewer, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return newViewer(cfg, newResult(cfg))
}

// newViewer builds the viewer on an already resolved cfg, recording into
// res (a Session shares one Result between its two halves).
func newViewer(cfg Config, res *Result) (*Viewer, error) {
	v := &Viewer{cfg: cfg, res: res, probe: cfg.Obs, flat: make([]float64, cfg.Video.Grid.Tiles())}
	for i := range v.flat {
		v.flat[i] = 1
	}
	var err error
	if v.scheme, err = makeController(cfg, cfg.Video.Grid); err != nil {
		return nil, err
	}
	v.user = cfg.UserModel
	if v.user == nil {
		v.user = headmotion.NewStochastic(cfg.User, DeriveStream(cfg.Seed, "headmotion"))
	}
	v.mismatch = compress.NewMismatchEstimator(cfg.Video.Grid, mismatchWindow)
	v.gccRx, err = ratecontrol.NewGCCReceiver(ratecontrol.DefaultGCCConfig())
	if err != nil {
		return nil, err
	}
	v.gccRx.SetProbe(v.probe)
	return v, nil
}

// Attach binds the viewer to an externally owned scheduler and registers
// its periodic activity (throughput sampling). Attach must be called
// exactly once, before the clock runs.
func (v *Viewer) Attach(clk simclock.Scheduler) error {
	if v.clk != nil {
		return fmt.Errorf("session: Attach called twice")
	}
	v.clk = clk
	v.reasm = rtp.NewReassembler(clk, v.display)

	// Per-second throughput sampling. The warmup gate is >= like every
	// other stats gate in this package (frame and diag recording), so a
	// warmup aligned exactly on a sampling tick includes that tick
	// everywhere or nowhere — not a mixture.
	clk.Ticker(time.Second, func() {
		if clk.Now() >= v.cfg.StatsWarmup {
			v.res.Throughput = append(v.res.Throughput, v.secondBits)
		}
		v.secondBits = 0
	})
	return nil
}

// OnPacket is the forward-path terminus: invoke it (on the scheduler
// goroutine) with each media packet that survives the network. The packet
// and its frame are only read during the call.
func (v *Viewer) OnPacket(pkt *rtp.Packet) {
	f := pkt.Frame
	g := v.cfg.Video.Grid
	// The metadata may have crossed a real network: an off-grid ROI would
	// index past the Eq. 1 matrix tables, and video.Encode never emits a
	// scale below 1.
	if !g.Contains(f.SenderROI) || f.Scale < 1 {
		v.res.BadPackets++
		return
	}
	if f.Spatial == nil {
		// Rebuilt from the wire (rtp.WireHeader.Materialize): the matrix
		// is a pure function of (scheme, label, ROI), so it never travels.
		// A label outside the scheme reads as uncompressed.
		if fam, ok := v.scheme.Family(f.Mode); ok {
			f.Spatial = fam.Matrix(f.SenderROI)
		} else {
			f.Spatial = v.flat
		}
	}
	// GCC observes the network path per packet (RTP timestamps), as in
	// WebRTC: one-way transport delay, excluding the app-layer queue.
	now := v.clk.Now()
	v.gccRx.OnPacket(now, now-pkt.SentAt, float64(pkt.Bytes)*8, pkt.Seq)
	v.reasm.OnPacket(*pkt)
}

// display runs for every completely reassembled frame: measure it against
// where the viewer is actually looking, and feed the mismatch estimator.
func (v *Viewer) display(cf rtp.CompletedFrame) {
	cfg := &v.cfg
	g := cfg.Video.Grid
	now := cf.Arrived
	delay := now - cf.Frame.Capture + cfg.PipelineDelay
	actual := v.user.At(now)
	// The PSNR is recorded only after the warm-up and emitted only to a
	// probe; before the warm-up of an unprobed viewer nothing reads it.
	var psnr float64
	if now >= cfg.StatsWarmup || v.probe != nil {
		psnr, v.visScratch = cf.Frame.ROIPSNRScratch(cfg.Video, actual, projection.DefaultFoV, v.visScratch)
	}
	level := cf.Frame.ROILevel(g, actual)
	spatial := level / cf.Frame.Scale

	// The assembler abandons incomplete older frames as it completes this
	// one, so losses surface here and nowhere else.
	lost := v.reasm.Lost() - v.lostSeen
	v.lostSeen += lost
	if now >= cfg.StatsWarmup {
		v.res.FramesDelivered++
		v.res.FramesLost += int(lost)
		v.res.FrameDelays = append(v.res.FrameDelays, delay)
		v.res.ROIPSNRs = append(v.res.ROIPSNRs, psnr)
		v.res.ROILevels = append(v.res.ROILevels, metrics.TimedSample{At: now, V: level})
		v.secondBits += cf.Bits
	}

	v.probe.Emit(now, obs.FrameDisplay,
		float64(delay)/float64(time.Millisecond), psnr, level, 0)

	// Eq. 2's dv floor uses the network one-way delay: the constant
	// processing pipeline is not something mode switching can react
	// to, and folding it in would pin the controller at conservative
	// modes regardless of network state.
	netDelay := delay - cfg.PipelineDelay
	if netDelay < 0 {
		netDelay = 0
	}
	v.lastM = v.mismatch.Observe(now, g.TileAt(actual), spatial, netDelay)
}

// Feedback builds the data-channel message for instant now: where the
// viewer looks, the window-averaged mismatch M and the refreshed GCC target
// (§5). Call it once per feedback interval and carry the result to
// Sender.OnFeedback.
func (v *Viewer) Feedback(now time.Duration) Feedback {
	actual := v.user.At(now)
	fb := Feedback{
		ROI:         v.cfg.Video.Grid.TileAt(actual),
		Orientation: actual,
		Mismatch:    v.lastM,
		GCCRate:     v.gccRx.Update(now),
		SentAt:      now,
	}
	if now >= v.cfg.StatsWarmup {
		v.res.Mismatch = append(v.res.Mismatch, metrics.TimedSample{At: now, V: fb.Mismatch.Seconds()})
	}
	return fb
}

// Reassembly reports packets the frame assembler discarded: duplicates of
// a fragment already received, and stragglers of frames already displayed
// or abandoned.
func (v *Viewer) Reassembly() (dups, late int64) {
	return v.reasm.Duplicates(), v.reasm.Late()
}

// Result finalizes the viewer's share of the measurements — delivered and
// lost frames, per-frame delay, ROI quality and level, M and throughput —
// and returns them. Call it after the attached clock has run.
func (v *Viewer) Result() *Result {
	res := v.res
	if v.probe != nil {
		v.probe.SetGauge("frames_delivered", float64(res.FramesDelivered))
		v.probe.SetGauge("frames_lost", float64(res.FramesLost))
		v.probe.SetGauge("freeze_ratio", res.FreezeRatio())
		v.probe.SetGauge("psnr_mean_db", res.PSNRSummary().Mean)
		v.probe.SetGauge("throughput_mean_bps", res.ThroughputSummary().Mean)
	}
	return res
}
