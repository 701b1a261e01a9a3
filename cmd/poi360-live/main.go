// Command poi360-live runs one half of a live POI360 session over a real
// UDP network path — the real-transport backend behind the same seam the
// simulator drives (internal/realnet, DESIGN.md §16). One process per
// endpoint, each running the very component the simulator composes into a
// session: the receiver feeds a session.Viewer from the socket and returns
// its feedback in the reverse-channel reports; the sender attaches a
// session.Sender to the wall clock and the UDP transport, with FBCC
// (diagnostics synthesized from the reports) or plain GCC, so the two
// controllers can be A/B'd over an actual network instead of the model.
// What is left here is flags, sockets, the clock-offset shim and the
// summaries.
//
// Usage examples:
//
//	poi360-live -role receiver -addr 127.0.0.1:0 -portfile /tmp/port
//	poi360-live -role sender -addr 127.0.0.1:$(cat /tmp/port) -rc fbcc -duration 30s
//
// Both roles print a one-line JSON summary on exit; -expect-frames /
// -expect-reports turn the summary into a pass/fail gate for smoke tests.
// Receiver-side delays are reported relative to the smallest one-way delay
// observed, so the two endpoints' clocks need not be synchronized.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"poi360/internal/metrics"
	"poi360/internal/netsim"
	"poi360/internal/obs"
	"poi360/internal/projection"
	"poi360/internal/realnet"
	"poi360/internal/rtp"
	"poi360/internal/session"
	"poi360/internal/simclock"
)

func main() {
	var (
		role     = flag.String("role", "", "sender or receiver")
		addr     = flag.String("addr", "", "sender: receiver address to dial; receiver: address to listen on (port 0 = ephemeral)")
		duration = flag.Duration("duration", 10*time.Second, "how long this endpoint runs")
		rc       = flag.String("rc", "fbcc", "sender rate control: gcc or fbcc")
		rtt      = flag.Duration("rtt", 100*time.Millisecond, "nominal path RTT for FBCC's hold timer (Eq. 6)")
		hold     = flag.Duration("hold", realnet.DefaultHold, "receiver jitter-buffer hold")
		seed     = flag.Int64("seed", 1, "seed for the source content and the receiver's head-motion model")
		portfile = flag.String("portfile", "", "receiver: write the bound UDP port to this file once listening")
		expFr    = flag.Int("expect-frames", 0, "receiver: exit non-zero unless at least this many frames complete")
		expRep   = flag.Int("expect-reports", 0, "sender: exit non-zero unless at least this many reports arrive")
	)
	flag.Parse()
	if *addr == "" {
		fatal("-addr is required")
	}
	var err error
	switch *role {
	case "sender":
		err = runSender(*addr, *duration, *rc, *rtt, *seed, *expRep)
	case "receiver":
		err = runReceiver(*addr, *duration, *hold, *seed, *portfile, *expFr)
	default:
		err = fmt.Errorf("-role must be sender or receiver, got %q", *role)
	}
	if err != nil {
		fatal("%v", err)
	}
}

// clockOffset is the one piece of endpoint logic live mode adds: the two
// processes' clocks share no epoch, so a peer timestamp is moved onto the
// local clock by the smallest (local − peer) difference seen so far — the
// clock offset plus the path's minimum one-way delay. What the endpoint
// then reads as a delay is the spread above that minimum, which is what
// congestion adds and quality feels.
type clockOffset struct {
	min      time.Duration
	seen     bool
	frameSeq int // media: the frame whose capture instant is already local
}

// local observes one (peer timestamp, local receipt instant) pair and
// returns the timestamp on the local clock.
func (c *clockOffset) local(peer, now time.Duration) time.Duration {
	if d := now - peer; !c.seen || d < c.min {
		c.min, c.seen = d, true
	}
	return peer + c.min
}

// media moves a released packet's send and capture instants onto the
// local clock. Packets of one frame share one frame record and are
// released back to back, so the capture instant is translated once.
func (c *clockOffset) media(pkt *rtp.Packet, arrived time.Duration) {
	pkt.SentAt = c.local(pkt.SentAt, arrived)
	if pkt.FrameSeq != c.frameSeq {
		c.frameSeq = pkt.FrameSeq
		pkt.Frame.Capture += c.min
	}
}

// newBus builds a bus that accumulates counters and histograms without
// event retention, so it stays O(1) no matter how long the endpoint runs.
func newBus() *obs.Bus {
	bus := obs.NewBus()
	bus.DisableRetention()
	return bus
}

// last returns the most recent sample of a rate trace.
func last(samples []metrics.TimedSample) float64 {
	if len(samples) == 0 {
		return 0
	}
	return samples[len(samples)-1].V
}

// senderSummary is the sender's exit report. Frame, drop and rate-control
// numbers cover the steady-state window (session.Config.StatsWarmup).
type senderSummary struct {
	Role        string `json:"role"`
	RC          string `json:"rc"`
	Duration    string `json:"duration"`
	FramesSent  int    `json:"frames_sent"`
	PacketsSent uint64 `json:"packets_sent"`
	BytesSent   uint64 `json:"bytes_sent"`
	PacerDrops  int64  `json:"pacer_drops"`
	WriteErrors int64  `json:"write_errors"`
	Reports     int    `json:"reports"`
	StaleRpts   int64  `json:"stale_reports"`
	// Net telemetry (the net.report sub-stream of the sender's bus): how
	// many reverse reports were accepted and the mean gap between them —
	// the live analogue of the diag cadence FBCC's watchdog supervises.
	NetReports      int64   `json:"net_reports"`
	ReportGapMeanMs float64 `json:"report_gap_mean_ms"`
	VideoRate       float64 `json:"video_rate_bps"`
	RTPRate         float64 `json:"rtp_rate_bps"`
	Overuses        int     `json:"fbcc_overuses,omitempty"`
	Degraded        int     `json:"fbcc_degradations,omitempty"`
}

func runSender(addr string, duration time.Duration, rcName string, rtt time.Duration, seed int64, expectReports int) error {
	rc := session.RCFBCC
	switch rcName {
	case "fbcc":
	case "gcc":
		rc = session.RCGCC
	default:
		return fmt.Errorf("-rc must be gcc or fbcc, got %q", rcName)
	}
	link, err := realnet.Dial(addr)
	if err != nil {
		return err
	}
	defer link.Close()
	wall := simclock.NewWall()
	bus := newBus()

	snd, err := session.NewSender(session.Config{
		Duration: duration,
		RC:       rc,
		// FBCC's hold timer reads the path's nominal RTT.
		Path: netsim.PathProfile{Name: "live", CoreBase: rtt / 2, RevBase: rtt - rtt/2},
		Seed: seed,
		Obs:  bus.Probe(0),
	})
	if err != nil {
		return err
	}
	grid := snd.Config().Video.Grid

	reports := 0
	var offset clockOffset
	tr := realnet.NewTransport(wall, uint32(seed)|1, link.Write, func(rep realnet.Report) {
		reports++
		snd.OnFeedback(session.Feedback{
			ROI:         rep.ROI,
			Orientation: grid.Center(rep.ROI),
			Mismatch:    rep.Mismatch,
			GCCRate:     rep.GCCRate,
			SentAt:      offset.local(rep.SentAt, wall.Now()),
		})
	})
	if err := snd.Attach(wall, tr); err != nil {
		return err
	}

	go link.Pump(wall, tr.HandleDatagram)
	wall.Run(duration)

	res := snd.Result()
	emit(senderSummary{
		Role: "sender", RC: rcName, Duration: duration.String(),
		FramesSent: res.FramesSent, PacketsSent: tr.SentPackets(), BytesSent: tr.SentBytes(),
		PacerDrops: res.PacketDrops, WriteErrors: tr.WriteErrors(),
		Reports: reports, StaleRpts: tr.StaleReports(),
		NetReports:      bus.Count(obs.NetReport),
		ReportGapMeanMs: 1e3 * bus.Hist(obs.NetReport).Mean(),
		VideoRate:       last(res.VideoRate), RTPRate: last(res.RTPRate),
		Overuses: res.FBCCOveruses, Degraded: res.FBCCDegradations,
	})
	if res.BadFeedback > 0 {
		fmt.Fprintf(os.Stderr, "poi360-live: rejected %d malformed reports\n", res.BadFeedback)
	}
	if expectReports > 0 && reports < expectReports {
		return fmt.Errorf("live-smoke: %d reports arrived, expected >= %d", reports, expectReports)
	}
	return nil
}

// receiverSummary is the receiver's exit report. Frame, delay, quality and
// throughput numbers cover the steady-state window
// (session.Config.StatsWarmup).
type receiverSummary struct {
	Role           string `json:"role"`
	Duration       string `json:"duration"`
	Packets        uint64 `json:"packets"`
	Bytes          uint64 `json:"bytes"`
	FramesComplete int    `json:"frames_complete"`
	FramesLost     int    `json:"frames_lost"`
	PacketDups     int64  `json:"packet_dups"`
	PacketLate     int64  `json:"packet_late"`
	SeqSkipped     int64  `json:"seq_skipped"`
	JitterDepth    int    `json:"jitter_max_depth"`
	// NetJitterEvents counts net.jitter emissions on the receiver's bus —
	// one per late arrival, duplicate, and hold-expiry skip in the jitter
	// buffer (each pathology is one event, whatever its sequence count).
	NetJitterEvents int64   `json:"net_jitter_events"`
	Reports         uint32  `json:"reports_sent"`
	ParseErrors     int64   `json:"parse_errors"`
	BadSSRC         int64   `json:"bad_ssrc"`
	DelayP50Ms      float64 `json:"delay_above_min_p50_ms"`
	DelayP90Ms      float64 `json:"delay_above_min_p90_ms"`
	PSNRMeanDB      float64 `json:"psnr_mean_db"`
	ThroughputBps   float64 `json:"throughput_mean_bps"`
}

func runReceiver(addr string, duration, hold time.Duration, seed int64, portfile string, expectFrames int) error {
	link, err := realnet.Listen(addr)
	if err != nil {
		return err
	}
	defer link.Close()
	if portfile != "" {
		port := fmt.Sprintf("%d\n", link.LocalAddr().Port)
		if err := os.WriteFile(portfile, []byte(port), 0o644); err != nil {
			return err
		}
	}
	wall := simclock.NewWall()
	bus := newBus()

	viewer, err := session.NewViewer(session.Config{
		Duration: duration,
		Seed:     seed,
		// Delays are reported above the path minimum (see clockOffset), so
		// a constant for the two phones' processing pipelines has no place
		// in them.
		PipelineDelay: -1,
		Obs:           bus.Probe(0),
	})
	if err != nil {
		return err
	}
	if err := viewer.Attach(wall); err != nil {
		return err
	}

	offset := clockOffset{frameSeq: -1}
	rx := realnet.NewReceiver(wall, realnet.ReceiverConfig{
		Hold:  hold,
		Probe: bus.Probe(0),
		Deliver: func(pkt *rtp.Packet, arrived time.Duration) {
			offset.media(pkt, arrived)
			viewer.OnPacket(pkt)
		},
		SendReport: link.Write,
		AppFeedback: func(now time.Duration) (projection.Tile, time.Duration, float64) {
			fb := viewer.Feedback(now)
			return fb.ROI, fb.Mismatch, fb.GCCRate
		},
	})

	go link.Pump(wall, rx.HandleDatagram)
	wall.Run(duration)

	st := rx.Stats()
	res := viewer.Result()
	dups, late := viewer.Reassembly()
	delay := res.DelaySummary()
	emit(receiverSummary{
		Role: "receiver", Duration: duration.String(),
		Packets: st.Packets, Bytes: st.Bytes,
		FramesComplete: res.FramesDelivered, FramesLost: res.FramesLost,
		PacketDups: st.Duplicates + dups, PacketLate: st.Late + late,
		SeqSkipped: st.Skipped, JitterDepth: st.MaxDepth,
		NetJitterEvents: bus.Count(obs.NetJitter),
		Reports:         st.ReportsSent, ParseErrors: st.ParseErrors, BadSSRC: st.BadSSRC,
		DelayP50Ms: delay.Median, DelayP90Ms: delay.P90,
		PSNRMeanDB:    res.PSNRSummary().Mean,
		ThroughputBps: res.ThroughputSummary().Mean,
	})
	if res.BadPackets > 0 {
		fmt.Fprintf(os.Stderr, "poi360-live: rejected %d malformed media packets\n", res.BadPackets)
	}
	if expectFrames > 0 && res.FramesDelivered < expectFrames {
		return fmt.Errorf("live-smoke: %d frames completed, expected >= %d", res.FramesDelivered, expectFrames)
	}
	return nil
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(b))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "poi360-live: "+format+"\n", args...)
	os.Exit(1)
}
