package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"poi360/internal/compress"
	"poi360/internal/headmotion"
	"poi360/internal/lte"
	"poi360/internal/netsim"
	"poi360/internal/network"
	"poi360/internal/obs"
	"poi360/internal/projection"
	"poi360/internal/ratecontrol"
	"poi360/internal/rtp"
	"poi360/internal/seeds"
	"poi360/internal/session"
	"poi360/internal/simclock"
	"poi360/internal/video"
)

// The layer drivers time one layer in isolation, around public calls only,
// on inputs that do not depend on the workload: the same driver gives the
// same number whichever workload's traced run hosts it. Each does a fixed
// amount of work, sized to take tens of milliseconds.

// driverRounds is how often a driver repeats its fixed work; the median
// round is reported.
const driverRounds = 3

// nsPerOp runs fn, which performs ops operations, driverRounds times and
// returns the median wall nanoseconds per operation.
func nsPerOp(ops int, fn func()) float64 {
	rounds := make([]float64, driverRounds)
	for i := range rounds {
		t0 := time.Now()
		fn()
		rounds[i] = float64(time.Since(t0)) / float64(ops)
	}
	sort.Float64s(rounds)
	return rounds[len(rounds)/2]
}

// driverSeed fixes the drivers' inputs: they characterise the code, not the
// workload, so they do not follow -seed.
const driverSeed = 360

func runDrivers(m map[string]float64) error {
	driveSimclock(m)
	if err := driveLTE(m); err != nil {
		return fmt.Errorf("lte drivers: %w", err)
	}
	if err := driveRateControl(m); err != nil {
		return fmt.Errorf("ratecontrol drivers: %w", err)
	}
	driveMedia(m)
	if err := driveRTP(m); err != nil {
		return fmt.Errorf("rtp drivers: %w", err)
	}
	driveNetsim(m)
	if err := driveObs(m); err != nil {
		return fmt.Errorf("obs drivers: %w", err)
	}
	return nil
}

// driveSimclock: the periodic lane under many payload-free tickers, and
// one-shot typed-event churn at a standing heap depth of 4096.
func driveSimclock(m map[string]float64) {
	const tickers, simTime = 1024, 50 * time.Millisecond
	fired := 0
	m["simclock.tick_ns_per_event"] = nsPerOp(tickers*int(simTime/time.Millisecond), func() {
		clk := simclock.New()
		for i := 0; i < tickers; i++ {
			clk.Ticker(time.Millisecond, func() { fired++ })
		}
		clk.Run(simTime)
	})

	const depth, events = 4096, 400_000
	m["simclock.sched_ns_per_event"] = nsPerOp(events, func() {
		clk := simclock.New()
		rng := seeds.NewSource(driverSeed)
		var code simclock.Code
		code = clk.NewCode(func(any) {
			clk.ScheduleCode(clk.Now()+time.Duration(1+rng.Uint64()%uint64(time.Second)), code, nil)
		})
		for i := 0; i < depth; i++ {
			clk.ScheduleCode(time.Duration(1+rng.Uint64()%uint64(time.Second)), code, nil)
		}
		for i := 0; i < events; i++ {
			clk.Step()
		}
	})
}

// cityCell builds a bare cell the way network.Run configures its shards.
func cityCell(clk simclock.Scheduler) (*lte.Cell, error) {
	prof := lte.ProfileCampus
	prof.Seed = seeds.Stream(driverSeed, "cell")
	cfg := lte.DefaultCellConfig(prof)
	cfg.AlwaysPF = true
	cfg.Src = seeds.NewSource(prof.Seed)
	cfg.CapacityStride = 10
	return lte.NewCell(clk, cfg)
}

// pfCell times a city-configured PF cell with ues attached UEs. Backlogged
// UEs are fed one 4-packet frame every 1/30 s; idle ones never enqueue.
func pfCell(ues int, backlogged bool, simTime time.Duration) (float64, error) {
	var err error
	ns := nsPerOp(int(simTime/lte.Subframe), func() {
		clk := simclock.New()
		var cell *lte.Cell
		if cell, err = cityCell(clk); err != nil {
			return
		}
		links := make([]*lte.UE, ues)
		for i := range links {
			ucfg := lte.DefaultUEConfig(0)
			ucfg.Src = seeds.NewSource(seeds.Grid(driverSeed, 0, i, 0))
			if links[i], err = cell.AddUE(ucfg, nil); err != nil {
				return
			}
		}
		cell.Start()
		if backlogged {
			clk.Ticker(time.Second/30, func() {
				for _, u := range links {
					for k := 0; k < 4; k++ {
						u.Enqueue(lte.Packet{Bytes: rtp.MTU})
					}
				}
			})
		}
		clk.Run(simTime)
	})
	return ns, err
}

func driveLTE(m map[string]float64) error {
	var err error
	if m["lte.pf_ns_per_subframe.u4"], err = pfCell(4, true, 20*time.Second); err != nil {
		return err
	}
	if m["lte.pf_ns_per_subframe.u16"], err = pfCell(16, true, 10*time.Second); err != nil {
		return err
	}
	if m["lte.idle_ns_per_subframe"], err = pfCell(4, false, 40*time.Second); err != nil {
		return err
	}
	if m["lte.empty_ns_per_subframe"], err = pfCell(0, false, 40*time.Second); err != nil {
		return err
	}

	// The legacy stochastic single-UE uplink every session.Run call rides.
	const upTime = 20 * time.Second
	m["lte.uplink_ns_per_subframe"] = nsPerOp(int(upTime/lte.Subframe), func() {
		clk := simclock.New()
		cfg := lte.DefaultConfig(lte.ProfileCampus)
		cfg.Profile.Seed = seeds.Stream(driverSeed, "lte")
		var ul *lte.Uplink
		if ul, err = lte.NewUplink(clk, cfg, func(lte.Packet) {}); err != nil {
			return
		}
		ul.Start()
		clk.Ticker(time.Second/30, func() {
			for k := 0; k < 6; k++ {
				ul.Enqueue(lte.Packet{Bytes: rtp.MTU})
			}
		})
		clk.Run(upTime)
	})
	if err != nil {
		return err
	}

	// Enqueue alone: an uncapped firmware buffer that is never served.
	const pkts = 200_000
	m["lte.enqueue_ns_per_pkt"] = nsPerOp(pkts, func() {
		clk := simclock.New()
		cfg := lte.DefaultConfig(lte.ProfileCampus)
		cfg.BufferCapBytes = 1 << 30
		var ul *lte.Uplink
		if ul, err = lte.NewUplink(clk, cfg, func(lte.Packet) {}); err != nil {
			return
		}
		for i := 0; i < pkts; i++ {
			ul.Enqueue(lte.Packet{Bytes: rtp.MTU})
		}
	})
	return err
}

// driveRateControl replays tapes recorded from one 30 sim-s FBCC session on
// the busy cell: its modem diag feed through FBCC, its frame arrivals
// through GCC with the scanned and the incremental trendline.
func driveRateControl(m map[string]float64) error {
	res, err := session.Run(session.Config{
		Duration: 30 * time.Second,
		Network:  session.Cellular,
		Cell:     lte.ProfileBusy,
		RC:       session.RCFBCC,
		Seed:     driverSeed,
	})
	if err != nil {
		return err
	}
	if len(res.Diag) == 0 || len(res.FrameDelays) == 0 {
		return fmt.Errorf("tape session recorded %d diag reports, %d frames", len(res.Diag), len(res.FrameDelays))
	}
	diag := make([]lte.DiagReport, len(res.Diag))
	for i, d := range res.Diag {
		diag[i] = lte.DiagReport{
			At:          d.At,
			BufferBytes: d.BufferBytes,
			SumTBSBits:  d.TBSRate * lte.DefaultDiagPeriod.Seconds(),
			Subframes:   int(lte.DefaultDiagPeriod / lte.Subframe),
		}
	}
	const replays = 200
	fcfg := ratecontrol.DefaultFBCCConfig(res.Config.Path.NominalRTT())
	rgcc := ratecontrol.DefaultGCCConfig().InitialRate
	m["ratecontrol.fbcc_ns_per_diag"] = nsPerOp(replays*len(diag), func() {
		for r := 0; r < replays; r++ {
			var f *ratecontrol.FBCC
			if f, err = ratecontrol.NewFBCC(fcfg); err != nil {
				return
			}
			for _, rep := range diag {
				f.OnDiag(rep)
				f.SetVideoRate(f.VideoRate(rep.At, rgcc))
			}
		}
	})
	if err != nil {
		return err
	}

	gcc := func(incremental bool) float64 {
		cfg := ratecontrol.DefaultGCCConfig()
		cfg.IncrementalTrendline = incremental
		return nsPerOp(replays*len(res.FrameDelays), func() {
			for r := 0; r < replays; r++ {
				var g *ratecontrol.GCCReceiver
				if g, err = ratecontrol.NewGCCReceiver(cfg); err != nil {
					return
				}
				for i, d := range res.FrameDelays {
					at := res.ROILevels[i].At
					g.OnFrame(at, d-res.Config.PipelineDelay, 40e3)
					g.Update(at)
				}
			}
		})
	}
	m["ratecontrol.gcc_ns_per_frame"] = gcc(false)
	m["ratecontrol.gcc_incr_ns_per_frame"] = gcc(true)
	return err
}

// driveMedia times the per-frame media path on a 10 000-frame tape: source,
// head motion, compression matrix, encoder, ROI PSNR and mismatch estimator.
func driveMedia(m map[string]float64) {
	const frames = 10_000
	vcfg := video.DefaultConfig()
	vcfg.Seed = seeds.Stream(driverSeed, "video")
	g := vcfg.Grid
	dt := vcfg.FrameInterval()

	// Head tape: every other driver below looks where this user looked.
	gaze := make([]projection.Orientation, frames)
	m["headmotion.at_ns_per_sample"] = nsPerOp(frames, func() {
		user := headmotion.NewStochastic(headmotion.Users[3], seeds.Stream(driverSeed, "headmotion"))
		for i := range gaze {
			gaze[i] = user.At(time.Duration(i) * dt)
		}
	})

	m["video.next_frame_ns"] = nsPerOp(frames, func() {
		src := video.NewSource(vcfg)
		for i := 0; i < frames; i++ {
			src.NextFrame(time.Duration(i) * dt)
		}
	})

	ctrl := compress.NewAdaptive(g)
	m["compress.levels_ns_per_frame"] = nsPerOp(frames, func() {
		for i := 0; i < frames; i++ {
			ctrl.Levels(g.TileAt(gaze[i]))
		}
	})

	// NextFrame reuses its TileBits, so the encoder tape owns copies.
	const ring = 64
	src := video.NewSource(vcfg)
	raw := make([]video.Frame, ring)
	for i := range raw {
		raw[i] = src.NextFrame(time.Duration(i) * dt)
		raw[i].TileBits = append([]float64(nil), raw[i].TileBits...)
	}
	// The matrices are the controller's shared immutable ones, so choosing
	// them ahead keeps compress out of the encoder's timing.
	rois := make([]projection.Tile, frames)
	matrices := make([]compress.Matrix, frames)
	modes := make([]int, frames)
	for i := range rois {
		rois[i] = g.TileAt(gaze[i])
		matrices[i], modes[i] = ctrl.Levels(rois[i])
	}
	encoded := make([]video.EncodedFrame, ring)
	budget := 1.5e6 / float64(vcfg.FPS)
	m["video.encode_ns_per_frame"] = nsPerOp(frames, func() {
		for i := 0; i < frames; i++ {
			encoded[i%ring] = video.Encode(&raw[i%ring], matrices[i], budget, rois[i], modes[i], vcfg.MaxScale)
		}
	})

	var scratch []projection.Tile
	sink := 0.0
	m["video.roi_psnr_ns_per_frame"] = nsPerOp(frames, func() {
		for i := 0; i < frames; i++ {
			var p float64
			p, scratch = encoded[i%ring].ROIPSNRScratch(vcfg, gaze[i], projection.DefaultFoV, scratch)
			sink += p
		}
	})

	m["compress.mismatch_ns_per_obs"] = nsPerOp(frames, func() {
		est := compress.NewMismatchEstimator(g, 500*time.Millisecond)
		for i := 0; i < frames; i++ {
			ef := &encoded[i%ring]
			est.Observe(time.Duration(i)*dt, g.TileAt(gaze[i]), ef.ROILevel(g, gaze[i])/ef.Scale, 80*time.Millisecond)
		}
	})
}

// driveRTP times packetization, the wire codec at MTU payloads, and
// in-order reassembly of 8-packet frames.
func driveRTP(m map[string]float64) error {
	const frames, perFrame = 4000, 8
	ef := video.EncodedFrame{Bits: float64(perFrame * rtp.MTU * 8), Scale: 1, Mode: 2}
	var pkts []rtp.Packet
	m["rtp.packetize_ns_per_pkt"] = nsPerOp(frames*perFrame, func() {
		for i := 0; i < frames; i++ {
			ef.Seq = i
			pkts = rtp.AppendPackets(pkts, &ef)
		}
	})
	if len(pkts) != perFrame {
		return fmt.Errorf("packetized %d packets per frame, want %d", len(pkts), perFrame)
	}

	var wire []byte
	m["rtp.wire_marshal_ns_per_pkt"] = nsPerOp(frames*perFrame, func() {
		for i := 0; i < frames; i++ {
			for k := range pkts {
				wire = pkts[k].AppendWire(wire[:0], 1)
			}
		}
	})

	var parseErr error
	m["rtp.wire_parse_ns_per_pkt"] = nsPerOp(frames*perFrame, func() {
		var f video.EncodedFrame
		for i := 0; i < frames*perFrame; i++ {
			h, err := rtp.ParseWire(wire)
			if err != nil {
				parseErr = err
				return
			}
			h.Materialize(&f)
		}
	})
	if parseErr != nil {
		return fmt.Errorf("parse of a marshalled packet: %w", parseErr)
	}

	completed := 0
	m["rtp.reassemble_ns_per_pkt"] = nsPerOp(frames*perFrame, func() {
		completed = 0
		re := rtp.NewReassembler(simclock.New(), func(rtp.CompletedFrame) { completed++ })
		for i := 0; i < frames; i++ {
			for k := range pkts {
				p := pkts[k]
				p.FrameSeq = i
				re.OnPacket(p)
			}
		}
	})
	if completed != frames {
		return fmt.Errorf("reassembled %d of %d frames", completed, frames)
	}
	return nil
}

// driveNetsim forwards packets through a Queue bottleneck and a DelayLink,
// one packet per simulated millisecond.
func driveNetsim(m map[string]float64) {
	const pkts = 100_000
	m["netsim.queue_ns_per_pkt"] = nsPerOp(pkts, func() {
		clk := simclock.New()
		link := netsim.NewDelayLink(clk, driverSeed, 20*time.Millisecond, 2*time.Millisecond, 0, 0, nil)
		q := netsim.NewQueue(clk, 20e6, 256*1024, link.Send)
		for i := 0; i < pkts; i++ {
			q.Send(rtp.MTU, nil)
			clk.Run(time.Duration(i+1) * time.Millisecond)
		}
	})
}

// driveObs times the telemetry pipeline on the binary stream a small
// telemetered city produces: emit, encode, decode, and replay into a
// ShardAgg. Decode and replay go through obs.ReadBinary, 64 KiB reads at a
// time, as cmd/poi360-trace does.
func driveObs(m map[string]float64) error {
	var tape bytes.Buffer
	sink := obs.NewBinWriter(&tape)
	if _, err := network.Run(network.Config{
		Cells: 8, UEs: 32, Duration: time.Second, Seed: driverSeed,
		MeanDwell: 3 * time.Second, Workers: 1, Sink: sink,
	}); err != nil {
		return err
	}
	if err := sink.Err(); err != nil {
		return err
	}
	var events []obs.Event
	if _, err := obs.ReadBinary(bytes.NewReader(tape.Bytes()), nil, func(_ int32, e *obs.Event) {
		events = append(events, *e)
	}); err != nil {
		return fmt.Errorf("decoding the event tape: %w", err)
	}
	if len(events) == 0 {
		return fmt.Errorf("the event tape is empty")
	}
	n := len(events)
	m["obs.bytes_per_event"] = float64(tape.Len()) / float64(n)

	m["obs.emit_ns_per_event"] = nsPerOp(n, func() {
		bus := obs.NewBus()
		bus.DisableRetention()
		p := bus.Probe(0)
		for i := range events {
			e := &events[i]
			p.Emit(e.At, e.Kind, e.A, e.B, e.C, e.D)
		}
	})

	const disabled = 2_000_000
	m["obs.emit_disabled_ns"] = nsPerOp(disabled, func() {
		var p *obs.Probe
		for i := 0; i < disabled; i++ {
			p.Emit(time.Duration(i), obs.LTEGrant, 1, 2, 3, 0)
		}
	})

	// The tape interleaves shards, so timestamps are not monotone across it;
	// the encoder's delta chain needs them to be, as one shard's are.
	mono := append([]obs.Event(nil), events...)
	sort.SliceStable(mono, func(i, j int) bool { return mono[i].At < mono[j].At })
	var buf []byte
	m["obs.encode_ns_per_event"] = nsPerOp(n, func() {
		var enc obs.EventEncoder
		buf = buf[:0]
		for i := range mono {
			buf = enc.AppendEvent(buf, &mono[i])
		}
	})

	var derr error
	m["obs.decode_ns_per_event"] = nsPerOp(n, func() {
		if _, err := obs.ReadBinary(bytes.NewReader(tape.Bytes()), nil, func(int32, *obs.Event) {}); err != nil {
			derr = err
		}
	})
	m["obs.agg_merge_ns_per_event"] = nsPerOp(n, func() {
		if _, err := obs.ReadBinary(bytes.NewReader(tape.Bytes()), obs.NewShardAgg(), nil); err != nil {
			derr = err
		}
	})
	return derr
}

// calibrate times a fixed pure-CPU xorshift loop: context for reading drift
// between runs on a shared host. It runs after the reps, never inside one.
func calibrate() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(t0)
}

var calibSink uint64
