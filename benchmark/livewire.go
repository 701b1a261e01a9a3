package main

import (
	"fmt"
	"time"

	"poi360/internal/compress"
	"poi360/internal/headmotion"
	"poi360/internal/lte"
	"poi360/internal/metrics"
	"poi360/internal/netsim"
	"poi360/internal/projection"
	"poi360/internal/ratecontrol"
	"poi360/internal/realnet"
	"poi360/internal/rtp"
	"poi360/internal/session"
	"poi360/internal/simclock"
	"poi360/internal/video"
)

// wireSpec is one in-memory network path of the live-wire workload: a
// netsim.Queue bottleneck followed by a netsim.DelayLink, each way. No real
// link and no loopback socket is crossed — what the workload exercises is
// the real-transport code (wire codec, jitter buffer, reports, synthesized
// diag), not a network.
type wireSpec struct {
	name    string
	rateBps float64
	delay   time.Duration
	// outage cuts the wire both ways during [outageFrom, outageFrom+outageLen)
	// of every outageEvery; zero outageEvery means never.
	outageEvery, outageFrom, outageLen time.Duration
}

func (w wireSpec) cut(now time.Duration) bool {
	if w.outageEvery <= 0 {
		return false
	}
	at := now % w.outageEvery
	return at >= w.outageFrom && at < w.outageFrom+w.outageLen
}

var liveWires = []wireSpec{
	{name: "3mbps-20ms", rateBps: 3e6, delay: 20 * time.Millisecond},
	{name: "1.5mbps-40ms", rateBps: 1.5e6, delay: 40 * time.Millisecond},
	{name: "3mbps-outage", rateBps: 3e6, delay: 20 * time.Millisecond, outageEvery: 15 * time.Second, outageFrom: 14 * time.Second, outageLen: time.Second},
	{name: "6mbps-10ms", rateBps: 6e6, delay: 10 * time.Millisecond},
}

// liveCall is one generated live call.
type liveCall struct {
	fbcc     bool
	wire     wireSpec
	seed     int64
	duration time.Duration
}

func liveWireCalls(seed int64, quick bool) []liveCall {
	var calls []liveCall
	for _, fbcc := range []bool{true, false} {
		for _, w := range liveWires {
			calls = append(calls, liveCall{
				fbcc:     fbcc,
				wire:     w,
				seed:     session.DeriveSeed(seed, len(calls), 3),
				duration: callSeconds(quick, 60*time.Second),
			})
		}
	}
	return calls
}

// Measurement window of a live call, mirroring session.Config's defaults:
// the start-up ramp is excluded, and frames captured in the last second are
// not owed yet when the call ends.
const liveTail = time.Second

func liveWarmup(d time.Duration) time.Duration { return min(10*time.Second, d/6) }

// gccPacingFactor is the pacing headroom over the video bitrate when the
// transport loop is GCC-driven (cmd/poi360-live and session use the same).
const gccPacingFactor = 1.5

// liveOps are the span labels of one live call, interned once per call.
type liveOps struct {
	call, dispatch                                                        opID
	nextFrame, levels, observeMismatch, fbccRate, fbccDiag, encode        opID
	packetize, send, wireFwd, wireRev, rx, rxDeliver, ensureSpatial       opID
	gccPacket, gccUpdate, reassemble, headAt, roiPSNR, mismatch, reportRx opID
}

func newLiveOps(tr *tracer) liveOps {
	return liveOps{
		call:            tr.op("harness.call"),
		dispatch:        tr.op("simclock.dispatch"),
		nextFrame:       tr.op("video.next_frame"),
		levels:          tr.op("compress.levels"),
		observeMismatch: tr.op("compress.observe_mismatch"),
		fbccRate:        tr.op("ratecontrol.fbcc_video_rate"),
		fbccDiag:        tr.op("ratecontrol.fbcc_on_diag"),
		encode:          tr.op("video.encode"),
		packetize:       tr.op("rtp.packetize"),
		send:            tr.op("realnet.send"),
		wireFwd:         tr.op("harness.wire_forward"),
		wireRev:         tr.op("harness.wire_reverse"),
		rx:              tr.op("realnet.rx"),
		rxDeliver:       tr.op("harness.rx_deliver"),
		ensureSpatial:   tr.op("compress.shared_mode_matrix"),
		gccPacket:       tr.op("ratecontrol.gcc_on_packet"),
		gccUpdate:       tr.op("ratecontrol.gcc_update"),
		reassemble:      tr.op("rtp.reassemble"),
		headAt:          tr.op("headmotion.at"),
		roiPSNR:         tr.op("video.roi_psnr"),
		mismatch:        tr.op("compress.mismatch"),
		reportRx:        tr.op("realnet.report"),
	}
}

// shapedWire is one direction of the in-memory path. write copies the
// datagram (the transport and the receiver both reuse their marshal buffer)
// and hands it to the bottleneck; buffers return to the pool once delivered.
type shapedWire struct {
	clk     simclock.Scheduler
	spec    wireSpec
	q       *netsim.Queue
	pool    [][]byte
	cutDrop int64 // datagrams written while the wire was cut
}

func newShapedWire(clk simclock.Scheduler, spec wireSpec, seed int64, deliver func([]byte)) *shapedWire {
	w := &shapedWire{clk: clk, spec: spec}
	link := netsim.NewDelayLink(clk, seed, spec.delay, spec.delay/10, 0, 0, func(p any) {
		b := p.([]byte)
		deliver(b)
		w.pool = append(w.pool, b[:0])
	})
	// 200 ms of buffering at the bottleneck rate, as a home router would have.
	w.q = netsim.NewQueue(clk, spec.rateBps, int(spec.rateBps*0.2/8), link.Send)
	return w
}

// write is the UDP-like send: it never reports an error, a full queue or a
// cut wire just loses the datagram.
func (w *shapedWire) write(b []byte) error {
	if w.spec.cut(w.clk.Now()) {
		w.cutDrop++
		return nil
	}
	var buf []byte
	if n := len(w.pool); n > 0 {
		buf, w.pool = w.pool[n-1], w.pool[:n-1]
	}
	buf = append(buf, b...)
	if !w.q.Send(len(buf), buf) {
		w.pool = append(w.pool, buf[:0])
	}
	return nil
}

// liveResult is what one live call measured.
type liveResult struct {
	framesDue      int // captured in [warm-up, duration − liveTail)
	completedDue   int // of those, fully reassembled
	frozenDue      int // of those, delivered later than the freeze threshold
	framesComplete int64
	delaysMs       []float64
	psnrs          []float64
	bits           float64

	pacerDrops, queueDrops, cutDrops   int64
	writeErrs, parseErrs, staleReports int64
	jitterLate, jitterSkipped          int64
	reportsAccepted                    int
	overuses, degradations             int
	sentPackets                        uint64
}

// runLiveCall runs one call with both endpoints on one simulation clock,
// assembled as cmd/poi360-live assembles its sender and receiver. Every
// layer call the harness makes itself is a span when tr is set.
func runLiveCall(c liveCall, tr *tracer) (*liveResult, error) {
	op := newLiveOps(tr)
	tr.begin(op.call)
	defer tr.end()

	clk := simclock.New()
	res := &liveResult{}
	warmup := liveWarmup(c.duration)
	due := func(capture time.Duration) bool {
		return capture >= warmup && capture < c.duration-liveTail
	}

	vcfg := video.DefaultConfig()
	vcfg.Seed = session.DeriveStream(c.seed, "video")
	g := vcfg.Grid
	fov := projection.DefaultFoV
	gccCfg := ratecontrol.DefaultGCCConfig()

	// --- Receiver (cmd/poi360-live runReceiver) ---------------------------
	user := headmotion.NewStochastic(headmotion.Users[1], session.DeriveStream(c.seed, "headmotion"))
	mismatch := compress.NewMismatchEstimator(g, 500*time.Millisecond)
	gccRx, err := ratecontrol.NewGCCReceiver(gccCfg)
	if err != nil {
		return nil, err
	}
	cs := compress.DefaultModeCs()
	const unknown = time.Duration(1<<62 - 1)
	minOwd := unknown
	var lastM time.Duration
	var visScratch []projection.Tile
	reasm := rtp.NewReassembler(clk, func(cf rtp.CompletedFrame) {
		now := cf.Arrived
		owd := now - cf.Frame.Capture
		netDelay := max(owd-minOwd, 0)
		tr.begin(op.headAt)
		actual := user.At(now)
		tr.end()
		tr.begin(op.roiPSNR)
		var psnr float64
		psnr, visScratch = cf.Frame.ROIPSNRScratch(vcfg, actual, fov, visScratch)
		tr.end()
		tr.begin(op.mismatch)
		lastM = mismatch.Observe(now, g.TileAt(actual), cf.Frame.ROILevel(g, actual)/max(cf.Frame.Scale, 1), netDelay)
		tr.end()
		if due(cf.Frame.Capture) {
			res.completedDue++
			if owd > metrics.FreezeThreshold {
				res.frozenDue++
			}
			res.delaysMs = append(res.delaysMs, float64(owd)/float64(time.Millisecond))
			res.psnrs = append(res.psnrs, psnr)
			res.bits += cf.Bits
		}
	})

	var tx *realnet.Transport
	rev := newShapedWire(traceSched(tr, clk, "netsim.wire.event"), c.wire, session.DeriveStream(c.seed, "rev"), func(b []byte) {
		tr.begin(op.reportRx)
		tx.HandleDatagram(b)
		tr.end()
	})
	rx := realnet.NewReceiver(traceSched(tr, clk, "realnet.rx.event"), realnet.ReceiverConfig{
		Deliver: func(pkt *rtp.Packet, arrived time.Duration) {
			tr.begin(op.rxDeliver)
			tr.begin(op.ensureSpatial)
			ensureSpatial(pkt.Frame, g, cs)
			tr.end()
			owd := arrived - pkt.SentAt
			minOwd = min(minOwd, owd)
			tr.begin(op.gccPacket)
			gccRx.OnPacket(arrived, owd-minOwd, float64(pkt.Bytes)*8, pkt.Seq)
			tr.end()
			tr.begin(op.reassemble)
			reasm.OnPacket(*pkt)
			tr.end()
			tr.end()
		},
		SendReport: func(b []byte) error {
			tr.begin(op.wireRev)
			defer tr.end()
			return rev.write(b)
		},
		AppFeedback: func(now time.Duration) (projection.Tile, time.Duration, float64) {
			tr.begin(op.headAt)
			roi := g.TileAt(user.At(now))
			tr.end()
			tr.begin(op.gccUpdate)
			rate := gccRx.Update(now)
			tr.end()
			return roi, lastM, rate
		},
	})
	fwd := newShapedWire(traceSched(tr, clk, "netsim.wire.event"), c.wire, session.DeriveStream(c.seed, "core"), func(b []byte) {
		tr.begin(op.rx)
		rx.HandleDatagram(b)
		tr.end()
	})

	// --- Sender (cmd/poi360-live runSender) -------------------------------
	source := video.NewSource(vcfg)
	controller := compress.NewAdaptive(g)
	rgcc := gccCfg.InitialRate
	var fbcc *ratecontrol.FBCC
	if c.fbcc {
		if fbcc, err = ratecontrol.NewFBCC(ratecontrol.DefaultFBCCConfig(2*c.wire.delay + realnet.DefaultReportEvery)); err != nil {
			return nil, err
		}
	}
	roiBelief := g.TileAt(projection.Orientation{})
	tx = realnet.NewTransport(traceSched(tr, clk, "realnet.diag.event"), uint32(c.seed)|1,
		func(b []byte) error {
			tr.begin(op.wireFwd)
			defer tr.end()
			return fwd.write(b)
		},
		func(rep realnet.Report) {
			res.reportsAccepted++
			roiBelief = rep.ROI
			tr.begin(op.observeMismatch)
			controller.ObserveMismatch(rep.Mismatch)
			tr.end()
			if rep.GCCRate > 0 {
				rgcc = rep.GCCRate
			}
		})

	initialRate := gccPacingFactor * rgcc
	if fbcc != nil {
		initialRate = fbcc.RTPRate()
	}
	pacer := rtp.NewPacer(traceSched(tr, clk, "rtp.pacer.event"), rtp.DefaultPacerTick, initialRate, func(pkt rtp.Packet) bool {
		p := pkt
		tr.begin(op.send)
		ok := tx.Send(p.Bytes, &p)
		tr.end()
		return ok
	})
	if fbcc != nil {
		tx.SetDiagListener(func(rep lte.DiagReport) {
			tr.begin(op.fbccDiag)
			fbcc.OnDiag(rep)
			tr.end()
			pacer.SetRate(fbcc.RTPRate())
		})
	}

	var pktScratch []rtp.Packet
	traceSched(tr, clk, "harness.sender_frame.event").Ticker(vcfg.FrameInterval(), func() {
		now := clk.Now()
		tr.begin(op.nextFrame)
		frame := source.NextFrame(now)
		tr.end()
		tr.begin(op.levels)
		matrix, mode := controller.Levels(roiBelief)
		tr.end()
		rv := rgcc
		if fbcc != nil {
			tr.begin(op.fbccRate)
			degraded := fbcc.CheckWatchdog(now)
			rv = fbcc.VideoRate(now, rgcc)
			fbcc.SetVideoRate(rv)
			tr.end()
			if degraded {
				pacer.SetRate(gccPacingFactor * rv)
			}
		}
		tr.begin(op.encode)
		ef := video.Encode(&frame, matrix, rv/float64(vcfg.FPS), roiBelief, mode, vcfg.MaxScale)
		tr.end()
		tr.begin(op.packetize)
		pktScratch = rtp.AppendPackets(pktScratch, &ef)
		tr.end()
		pacer.Enqueue(pktScratch)
		if due(now) {
			res.framesDue++
		}
		if fbcc == nil {
			pacer.SetRate(gccPacingFactor * rv)
		}
	})

	tr.begin(op.dispatch)
	clk.Run(c.duration)
	tr.end()

	st := rx.Stats()
	res.framesComplete = reasm.Completed()
	res.pacerDrops = pacer.Drops()
	res.queueDrops = fwd.q.Dropped() + rev.q.Dropped()
	res.cutDrops = fwd.cutDrop + rev.cutDrop
	res.writeErrs = tx.WriteErrors() + st.ReportErrs
	res.parseErrs = tx.ParseErrors() + st.ParseErrors
	res.staleReports = tx.StaleReports()
	res.jitterLate = st.Late
	res.jitterSkipped = st.Skipped
	res.sentPackets = tx.SentPackets()
	if fbcc != nil {
		res.overuses = fbcc.Overuses()
		res.degradations = fbcc.Degradations()
	}
	return res, nil
}

// ensureSpatial rebuilds a received frame's per-tile level matrix from the
// wire metadata, as cmd/poi360-live does: the Eq. 1 matrix is a pure function
// of (grid, mode C, ROI), so it never crosses the wire.
func ensureSpatial(f *video.EncodedFrame, g projection.Grid, cs []float64) {
	if f.Spatial != nil {
		return
	}
	if f.Mode >= 1 && f.Mode <= len(cs) {
		f.Spatial = []float64(compress.SharedModeMatrix(g, f.SenderROI, cs[f.Mode-1]))
		return
	}
	flat := make([]float64, g.Tiles())
	for i := range flat {
		flat[i] = 1
	}
	f.Spatial = flat
}

// addLive pools one finished live call into the outcome and checks the
// harness-hygiene invariants: a call that moved no media must fail the rep,
// not report a fast, empty run.
func (o *outcome) addLive(h *hasher, c liveCall, r *liveResult) {
	pop := popGCC
	if c.fbcc {
		pop = popFBCC
	}
	label := fmt.Sprintf("live call %s/%s", map[bool]string{true: "fbcc", false: "gcc"}[c.fbcc], c.wire.name)
	o.simSeconds += c.duration.Seconds()
	o.ues++
	o.ueSeconds += (c.duration - liveWarmup(c.duration) - liveTail).Seconds()
	o.bits += r.bits
	for _, d := range r.delaysMs {
		h.float(d)
		o.delaySumMs += d
	}
	o.delaysMs = append(o.delaysMs, r.delaysMs...)
	for _, p := range r.psnrs {
		h.float(p)
		o.psnrSum += p
	}
	o.psnrN += len(r.psnrs)
	for _, w := range []int64{int64(r.framesDue), int64(r.completedDue), r.framesComplete, r.pacerDrops, r.queueDrops, int64(r.reportsAccepted), int64(r.sentPackets)} {
		h.word(uint64(w))
	}
	lost := r.framesDue - r.completedDue
	o.framesSent += r.framesDue
	o.framesDelivered += r.completedDue
	o.framesLost += lost
	o.bad[pop] += lost + r.frozenDue
	o.total[pop] += r.framesDue

	if lost < 0 {
		o.violate("%s: %d frames completed of %d sent", label, r.completedDue, r.framesDue)
	}
	if r.writeErrs != 0 {
		o.violate("%s: %d write errors", label, r.writeErrs)
	}
	if r.parseErrs != 0 {
		o.violate("%s: %d parse errors", label, r.parseErrs)
	}
	if r.reportsAccepted == 0 {
		o.violate("%s: no report accepted", label)
	}
	if r.framesComplete == 0 || r.completedDue == 0 {
		o.violate("%s: no frame completed", label)
	}

	o.counts["ratecontrol.fbcc_overuses_per_sim_s"] += float64(r.overuses)
	o.counts["ratecontrol.fbcc_degradations"] += float64(r.degradations)
	o.counts["rtp.pacer_drops"] += float64(r.pacerDrops)
	o.counts["rtp.frames_lost"] += float64(lost)
	o.counts["netsim.queue_drops"] += float64(r.queueDrops)
	o.counts["realnet.jitter_late"] += float64(r.jitterLate)
	o.counts["realnet.jitter_skipped"] += float64(r.jitterSkipped)
	o.counts["realnet.stale_reports"] += float64(r.staleReports)
	o.counts["realnet.parse_errors"] += float64(r.parseErrs)
}

func prepareLiveWire(seed int64, quick bool) (rep, error) {
	calls := liveWireCalls(seed, quick)
	return func(tr *tracer) (*outcome, error) {
		o := newOutcome()
		h := newHasher()
		for _, c := range calls {
			r, err := runLiveCall(c, tr)
			if err != nil {
				return nil, err
			}
			o.addLive(&h, c, r)
		}
		o.fingerprint = uint64(h)
		return o, nil
	}, nil
}
