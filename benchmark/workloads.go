package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"poi360/internal/headmotion"
	"poi360/internal/lte"
	"poi360/internal/metrics"
	"poi360/internal/netsim"
	"poi360/internal/network"
	"poi360/internal/obs"
	"poi360/internal/session"
	"poi360/internal/simclock"
)

// workload is one named set of inputs. prepare turns the seed into configs
// (and, for city-par, the Workers=1 reference run) and returns the rep: one
// complete deterministic simulation batch, identical on every call.
//
// quick shrinks every call to 10 simulated seconds (the -check mode).
type workload struct {
	name    string
	why     string // one line, ≤ 200 characters: BENCHMARK.json carries it
	rep     string // what one rep is, for the README and the printed header
	hot     string // layers that do the work
	cold    string // layers that do none
	prepare func(seed int64, quick bool) (rep, error)
	// companion, where set, is the configuration the traced run reads this
	// workload against: the other worker count (city-seq, city-par) or
	// telemetry off (city-telemetry).
	companion func(seed int64, quick bool) (rep, error)
	city      citySize // zero on non-city workloads
}

type citySize struct {
	cells, ues int
	parallel   bool
}

// rep runs one batch. tr is nil on timed reps; on traced reps the harness
// assembles the same calls through its span seams.
type rep func(tr *tracer) (*outcome, error)

// The two rate-control populations every workload mixes.
const (
	popFBCC = iota
	popGCC
)

// outcome is everything one rep produced that the benchmark reports or
// checks. All of it is simulated-time data: exactly repeatable at a seed.
type outcome struct {
	fingerprint uint64
	simSeconds  float64 // Σ simulated duration of the rep's calls
	ues         int     // sessions, UEs or calls pooled
	ueSeconds   float64 // Σ per-UE measured window (after warm-up)
	bits        float64 // delivered video bits inside those windows

	framesSent, framesDelivered, framesLost int
	bad, total                              [2]int // frozen+lost and delivered+lost, per population

	delaysMs   []float64 // pooled per-frame delays (absent on city workloads)
	delaySumMs float64
	psnrSum    float64
	psnrN      int
	perUEBits  []float64 // for Jain (shared-cell and city workloads)

	counts     map[string]float64 // exact counters, keyed by per-layer metric name
	violations []string           // broken invariants; any one fails the rep
}

func newOutcome() *outcome { return &outcome{counts: map[string]float64{}} }

func (o *outcome) violate(format string, a ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, a...))
}

// hasher folds 64-bit words into an FNV-1a style fingerprint.
type hasher uint64

func newHasher() hasher { return 14695981039346656037 }

func (h *hasher) word(x uint64)   { *h = (*h ^ hasher(x)) * 1099511628211 }
func (h *hasher) float(f float64) { h.word(math.Float64bits(f)) }
func (h *hasher) str(s string) {
	for i := 0; i < len(s); i++ {
		h.word(uint64(s[i]))
	}
}

// frameSlack is the in-flight allowance of the frame-conservation check:
// any frame captured before the warm-up boundary may be delivered after it
// (a weak cell holds seconds of backlog), and none of those is counted as
// sent.
func frameSlack(cfg session.Config) int {
	return int(cfg.StatsWarmup.Seconds()*float64(cfg.Video.FPS)) + 1
}

// addSession pools one finished session into the outcome and checks its
// invariants.
func (o *outcome) addSession(h *hasher, res *session.Result) {
	cfg := res.Config
	pop := popGCC
	if cfg.RC == session.RCFBCC {
		pop = popFBCC
	}
	o.simSeconds += cfg.Duration.Seconds()
	o.ues++
	o.ueSeconds += (cfg.Duration - cfg.StatsWarmup).Seconds()

	ueBits := 0.0
	for _, b := range res.Throughput {
		ueBits += b
		h.float(b)
		if b < 0 {
			o.violate("throughput sample %g < 0", b)
		}
	}
	o.bits += ueBits
	o.perUEBits = append(o.perUEBits, ueBits)

	frozen := 0
	for _, d := range res.FrameDelays {
		h.word(uint64(d))
		ms := float64(d) / float64(time.Millisecond)
		o.delaysMs = append(o.delaysMs, ms)
		o.delaySumMs += ms
		if d > metrics.FreezeThreshold {
			frozen++
		}
	}
	for _, p := range res.ROIPSNRs {
		h.float(p)
		o.psnrSum += p
	}
	o.psnrN += len(res.ROIPSNRs)
	for _, s := range res.VideoRate {
		h.float(s.V)
		if s.V <= 0 {
			o.violate("video rate sample %g ≤ 0", s.V)
		}
	}
	for _, s := range res.RTPRate {
		if s.V <= 0 {
			o.violate("RTP rate sample %g ≤ 0", s.V)
		}
	}
	for _, w := range []int{res.FramesSent, res.FramesDelivered, res.FramesLost, int(res.PacketDrops), res.FBCCOveruses} {
		h.word(uint64(w))
	}

	o.framesSent += res.FramesSent
	o.framesDelivered += res.FramesDelivered
	o.framesLost += res.FramesLost
	o.bad[pop] += frozen + res.FramesLost
	o.total[pop] += len(res.FrameDelays) + res.FramesLost
	if slack := frameSlack(cfg); res.FramesDelivered+res.FramesLost > res.FramesSent+slack {
		o.violate("frame conservation: delivered %d + lost %d > sent %d + %d", res.FramesDelivered, res.FramesLost, res.FramesSent, slack)
	}
	if fr := res.FreezeRatio(); fr < 0 || fr > 1 {
		o.violate("freeze ratio %g outside [0,1]", fr)
	}

	o.counts["ratecontrol.fbcc_overuses_per_sim_s"] += float64(res.FBCCOveruses)
	o.counts["ratecontrol.fbcc_degradations"] += float64(res.FBCCDegradations)
	o.counts["session.stale_feedback"] += float64(res.StaleFeedback)
	o.counts["rtp.pacer_drops"] += float64(res.PacketDrops)
	o.counts["rtp.frames_lost"] += float64(res.FramesLost)
}

// addCity pools one finished city run into the outcome.
func (o *outcome) addCity(res *network.Result) {
	h := newHasher()
	h.str(res.Fingerprint())
	o.fingerprint = uint64(h)
	o.simSeconds += res.Duration.Seconds()
	window := (res.Duration - res.Warmup).Seconds()
	var delaySum time.Duration
	for _, u := range res.PerUE {
		pop := popGCC
		if u.RC == network.RCFBCC {
			pop = popFBCC
		}
		o.ues++
		o.ueSeconds += window
		o.bits += u.BitsDelivered
		o.perUEBits = append(o.perUEBits, u.BitsDelivered)
		o.framesSent += u.FramesSent
		o.framesDelivered += u.FramesDelivered
		o.framesLost += u.FramesLost()
		o.bad[pop] += u.FramesLost() + u.FramesFrozen
		o.total[pop] += u.FramesSent
		delaySum += u.DelaySum
		if u.FramesDelivered > u.FramesSent {
			o.violate("UE %d: delivered %d > sent %d", u.ID, u.FramesDelivered, u.FramesSent)
		}
		if fr := u.FreezeRatio(); fr < 0 || fr > 1 {
			o.violate("UE %d: freeze ratio %g outside [0,1]", u.ID, fr)
		}
	}
	o.delaySumMs += float64(delaySum) / float64(time.Millisecond)
	if res.ThroughputBps <= 0 {
		o.violate("city throughput %g ≤ 0", res.ThroughputBps)
	}
	if res.JainGlobal < 0 || res.JainGlobal > 1 {
		o.violate("Jain index %g outside [0,1]", res.JainGlobal)
	}
	o.counts["network.handovers_per_sim_s"] += float64(res.Handovers)
	o.counts["network.outage_ms_mean"] = float64(res.OutageMean) / float64(time.Millisecond)
	o.counts["network.degradations"] += float64(res.Degradations)
	o.counts["network.recoveries"] += float64(res.Recoveries)
	o.counts["ratecontrol.fbcc_degradations"] += float64(res.Degradations)
	o.counts["network.empty_cells_est"] = emptyCellsEstimate(res)
}

// emptyCellsEstimate averages the number of cells hosting no UE at the start
// and at the end of the run — the idle-cell population of the estimate
// network.idle_share_est is built on.
func emptyCellsEstimate(res *network.Result) float64 {
	home := make([]bool, res.Cells)
	final := make([]bool, res.Cells)
	for _, u := range res.PerUE {
		home[u.HomeCell] = true
		final[u.FinalCell] = true
	}
	empty := 0
	for c := range home {
		if !home[c] {
			empty++
		}
		if !final[c] {
			empty++
		}
	}
	return float64(empty) / 2
}

// addObsCounts records the lte-layer counters a telemetry bus accumulated.
func (o *outcome) addObsCounts(b *obs.Bus) {
	o.counts["lte.grants_per_sim_s"] += float64(b.Count(obs.LTEGrant))
	o.counts["lte.diag_reports_per_sim_s"] += float64(b.Count(obs.LTEDiag))
	o.counts["lte.buffer_drops_per_sim_s"] += float64(b.Count(obs.LTEDrop))
}

func callSeconds(quick bool, full time.Duration) time.Duration {
	if quick {
		return 10 * time.Second
	}
	return full
}

// countingBus is the retention-free bus a traced rep threads through the
// stack to read the lte counters; probes only observe.
func countingBus(tr *tracer) *obs.Bus {
	if tr == nil {
		return nil
	}
	b := obs.NewBus()
	b.DisableRetention()
	return b
}

// --- session-grid ----------------------------------------------------------

func sessionGridConfigs(seed int64, quick bool) []session.Config {
	type pair struct {
		scheme session.SchemeKind
		user   string
	}
	pairs := []pair{
		{session.SchemeAdaptive, "typical"},
		{session.SchemeAdaptive, "restless"},
		{session.SchemeConduit, "curious"},
		{session.SchemePyramid, "scanner"},
	}
	var cfgs []session.Config
	for _, rc := range []session.RCKind{session.RCFBCC, session.RCGCC} {
		for _, cell := range []lte.CellProfile{lte.ProfileBusy, lte.ProfileCampus, lte.ProfileWeak} {
			for _, p := range pairs {
				user, err := headmotion.UserByName(p.user)
				if err != nil {
					panic(err) // the names above are the package's own
				}
				cfgs = append(cfgs, session.Config{
					Duration: callSeconds(quick, 60*time.Second),
					Network:  session.Cellular,
					Cell:     cell,
					Scheme:   p.scheme,
					RC:       rc,
					User:     user,
					Seed:     session.DeriveSeed(seed, len(cfgs), 0),
				})
			}
		}
	}
	return cfgs
}

// runSessionTraced is session.Run's cellular assembly with the benchmark's
// seams in place: one scheduler wrapper per component, the transport wrapper,
// and wrapped deliver callbacks. With tr == nil it is session.Run.
func runSessionTraced(cfg session.Config, tr *tracer) (*session.Result, error) {
	tr.begin(tr.op("harness.call"))
	defer tr.end()

	clk := simclock.New()
	s, err := func() (*session.Session, error) {
		tr.begin(tr.op("session.new_attach"))
		defer tr.end()
		s, err := session.New(cfg)
		if err != nil {
			return nil, err
		}
		cfg = s.Config()
		lcfg := lte.DefaultConfig(cfg.Cell)
		lcfg.Profile.Seed = session.DeriveStream(cfg.Seed, "lte")
		cell, err := netsim.NewCellular(traceSched(tr, clk, "netsim.access.event"), lcfg, cfg.Path,
			traceDeliver(tr, "session.deliver_forward", s.DeliverForward),
			traceDeliver(tr, "session.deliver_feedback", s.DeliverFeedback))
		if err != nil {
			return nil, err
		}
		return s, s.Attach(traceSched(tr, clk, "session.event"), traceTransport(tr, cell))
	}()
	if err != nil {
		return nil, err
	}

	tr.begin(tr.op("simclock.dispatch"))
	clk.Run(cfg.Duration)
	tr.end()
	return s.Result(), nil
}

func prepareSessionGrid(seed int64, quick bool) (rep, error) {
	cfgs := sessionGridConfigs(seed, quick)
	return func(tr *tracer) (*outcome, error) {
		o := newOutcome()
		h := newHasher()
		bus := countingBus(tr)
		for i, cfg := range cfgs {
			var res *session.Result
			var err error
			if tr == nil {
				res, err = session.Run(cfg)
			} else {
				cfg.Obs = bus.Probe(int32(i))
				res, err = runSessionTraced(cfg, tr)
			}
			if err != nil {
				return nil, fmt.Errorf("session %d: %w", i, err)
			}
			o.addSession(&h, res)
		}
		o.perUEBits = nil // independent cells: fairness between them means nothing
		if bus != nil {
			o.addObsCounts(bus)
		}
		o.fingerprint = uint64(h)
		return o, nil
	}, nil
}

// --- shared-cell -----------------------------------------------------------

func sharedCellConfigs(seed int64, quick bool) []session.MultiConfig {
	var mcs []session.MultiConfig
	for k, n := range []int{8, 16} {
		mc := session.MultiConfig{
			Duration: callSeconds(quick, 60*time.Second),
			Cell:     lte.ProfileCampus,
			Path:     netsim.CellularPath,
			Seed:     session.DeriveSeed(seed, k, 1),
		}
		for i := 0; i < n; i++ {
			rc := session.RCFBCC
			if i%2 == 1 {
				rc = session.RCGCC
			}
			mc.Sessions = append(mc.Sessions, session.Config{
				Scheme: session.SchemeAdaptive,
				RC:     rc,
				User:   headmotion.Users[i%len(headmotion.Users)],
			})
		}
		mcs = append(mcs, mc)
	}
	return mcs
}

// runSharedTraced is session.RunShared's assembly with the benchmark's seams
// in place (see runSessionTraced).
func runSharedTraced(mc session.MultiConfig, tr *tracer, bus *obs.Bus) ([]*session.Result, error) {
	tr.begin(tr.op("harness.call"))
	defer tr.end()

	clk := simclock.New()
	sessions := make([]*session.Session, len(mc.Sessions))
	err := func() error {
		tr.begin(tr.op("session.new_attach"))
		defer tr.end()
		cellCfg := lte.DefaultCellConfig(mc.Cell)
		cellCfg.Profile.Seed = session.DeriveStream(mc.Seed, "cell")
		sc, err := netsim.NewSharedCell(traceSched(tr, clk, "netsim.access.event"), cellCfg, mc.Path)
		if err != nil {
			return err
		}
		for i, cfg := range mc.Sessions {
			cfg.Network = session.Cellular
			cfg.Cell = mc.Cell
			cfg.Path = mc.Path
			cfg.Duration = mc.Duration
			cfg.Seed = session.DeriveSeed(mc.Seed, i, 0)
			if bus != nil {
				cfg.Obs = bus.Probe(int32(i))
			}
			if sessions[i], err = session.New(cfg); err != nil {
				return fmt.Errorf("session %d: %w", i, err)
			}
		}
		sessSched := traceSched(tr, clk, "session.event")
		for i, s := range sessions {
			linkSeed := session.DeriveStream(s.Config().Seed, "lte")
			transport, err := sc.Attach(lte.DefaultUEConfig(linkSeed), linkSeed,
				traceDeliver(tr, "session.deliver_forward", s.DeliverForward),
				traceDeliver(tr, "session.deliver_feedback", s.DeliverFeedback))
			if err == nil {
				err = s.Attach(sessSched, traceTransport(tr, transport))
			}
			if err != nil {
				return fmt.Errorf("session %d: %w", i, err)
			}
		}
		sc.Start()
		return nil
	}()
	if err != nil {
		return nil, err
	}

	tr.begin(tr.op("simclock.dispatch"))
	clk.Run(mc.Duration)
	tr.end()

	results := make([]*session.Result, len(sessions))
	for i, s := range sessions {
		results[i] = s.Result()
	}
	return results, nil
}

func prepareSharedCell(seed int64, quick bool) (rep, error) {
	mcs := sharedCellConfigs(seed, quick)
	return func(tr *tracer) (*outcome, error) {
		o := newOutcome()
		h := newHasher()
		bus := countingBus(tr)
		sim := 0.0
		for i, mc := range mcs {
			var results []*session.Result
			var err error
			if tr == nil {
				results, err = session.RunShared(mc)
			} else {
				results, err = runSharedTraced(mc, tr, bus)
			}
			if err != nil {
				return nil, fmt.Errorf("shared cell %d: %w", i, err)
			}
			for _, res := range results {
				o.addSession(&h, res)
			}
			sim += mc.Duration.Seconds()
		}
		// One clock carries all of a call's sessions: the rep simulates the
		// calls' durations, not their sum over UEs.
		o.simSeconds = sim
		if jain := metrics.JainFairness(o.perUEBits); jain < 0 || jain > 1 {
			o.violate("Jain index %g outside [0,1]", jain)
		}
		if bus != nil {
			o.addObsCounts(bus)
		}
		o.fingerprint = uint64(h)
		return o, nil
	}, nil
}

// --- city workloads --------------------------------------------------------

// parWorkers is the worker count of city-par and the thread budget of the
// whole benchmark.
func parWorkers() int { return min(runtime.NumCPU(), 4) }

func cityConfig(seed int64, lane int, quick bool, cells, ues, workers int) network.Config {
	if quick {
		cells, ues = cells/4, ues/4
	}
	return network.Config{
		Cells:     cells,
		UEs:       ues,
		Duration:  10 * time.Second,
		Seed:      session.DeriveSeed(seed, lane, 2),
		MeanDwell: 3 * time.Second,
		Workers:   workers,
	}
}

// byteCounter is the discard writer behind city-telemetry's BinWriter.
type byteCounter struct{ n int64 }

func (c *byteCounter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// runCity runs one city call. telemetry attaches a fresh ShardAgg and a
// BinWriter over a discard writer (the city-telemetry configuration). A
// traced rep of an untelemetered workload attaches a counting-only ShardAgg
// instead: network.Run has no other seam, and the aggregate is where the
// lte counters come from.
func runCity(cfg network.Config, telemetry bool, tr *tracer, o *outcome) error {
	var sink *obs.BinWriter
	if telemetry {
		cfg.Agg = obs.NewShardAgg()
		sink = obs.NewBinWriter(&byteCounter{})
		cfg.Sink = sink
	} else if tr != nil {
		cfg.Agg = obs.NewShardAgg()
	}
	tr.begin(tr.op("network.run"))
	res, err := network.Run(cfg)
	tr.end()
	if err != nil {
		return err
	}
	o.addCity(res)
	if cfg.Agg != nil {
		merged := cfg.Agg.Merged()
		o.addObsCounts(merged)
		if telemetry {
			events := int64(0)
			for k := obs.Kind(0); k < obs.NumKinds; k++ {
				events += merged.Count(k)
			}
			o.counts["obs.events_per_sim_s"] += float64(events)
			o.counts["obs.bytes_per_sim_s"] += float64(sink.Bytes())
			if err := sink.Err(); err != nil {
				o.violate("telemetry sink: %v", err)
			}
			if events == 0 || sink.Bytes() == 0 {
				o.violate("telemetry run emitted %d events, %d bytes", events, sink.Bytes())
			}
		}
	}
	return nil
}

func prepareCity(lane, cells, ues int, parallel, telemetry bool) func(int64, bool) (rep, error) {
	return func(seed int64, quick bool) (rep, error) {
		workers := 1
		if parallel {
			workers = parWorkers()
		}
		cfg := cityConfig(seed, lane, quick, cells, ues, workers)
		var ref uint64
		if parallel {
			// The sequential reference every parallel rep must reproduce.
			seq := cfg
			seq.Workers = 1
			o := newOutcome()
			if err := runCity(seq, telemetry, nil, o); err != nil {
				return nil, fmt.Errorf("Workers=1 reference: %w", err)
			}
			ref = o.fingerprint
		}
		return func(tr *tracer) (*outcome, error) {
			o := newOutcome()
			if err := runCity(cfg, telemetry, tr, o); err != nil {
				return nil, err
			}
			if parallel && o.fingerprint != ref {
				o.violate("Workers=%d fingerprint %016x differs from the Workers=1 reference %016x", cfg.Workers, o.fingerprint, ref)
			}
			return o, nil
		}, nil
	}
}

// City lanes keep the seq and par workloads on the same derived seed, so
// their fingerprints are comparable across processes.
const (
	laneCity = iota
	laneSparse
	laneTelemetry
)

var workloads = []workload{
	{
		name:    "session-grid",
		why:     "The paper's own traffic: a grid of single-UE calls. session, the media path, ratecontrol, rtp, netsim and the legacy lte.Uplink do all the work; network, PF, obs and realnet none.",
		rep:     "24 sequential session.Run calls of 60 sim-s: RC {FBCC, GCC} x cell {Busy, Campus, Weak} x (scheme, user) {adaptive/typical, adaptive/restless, Conduit/curious, Pyramid/scanner}",
		hot:     "session, video, compress, projection, headmotion, ratecontrol, rtp, netsim, lte (Uplink), simclock",
		cold:    "network, lte PF, obs, realnet",
		prepare: prepareSessionGrid,
	},
	{
		name:    "shared-cell",
		why:     "Full sessions contending on one PF lte.Cell at 8 and 16 UEs: the only workload where PF ranking cost and the full endpoint interact, far above the city's 4 UEs per cell.",
		rep:     "session.RunShared twice on ProfileCampus, 60 sim-s each: 8 UEs and 16 UEs, alternating FBCC/GCC, users cycled",
		hot:     "lte (PF Cell), session, media path, ratecontrol, rtp, netsim, simclock",
		cold:    "network, obs, realnet",
		prepare: prepareSharedCell,
	},
	{
		name:      "city-seq",
		why:       "The committed stress scenario on one worker: lte PF grants, network.ue endpoints and the handover fold do the work; the media path and session do none.",
		rep:       "network.Run, 256 cells x 1024 UEs, 10 sim-s, MeanDwell 3 s, Workers=1",
		hot:       "lte (PF Cell), network, ratecontrol, simclock",
		cold:      "session, media path, rtp, netsim, obs, realnet",
		prepare:   prepareCity(laneCity, 256, 1024, false, false),
		companion: prepareCity(laneCity, 256, 1024, true, false),
		city:      citySize{cells: 256, ues: 1024},
	},
	{
		name:      "city-par",
		why:       "Same city with Workers=min(nproc,4): the epoch barrier, epochPool and shard order now matter, and speed bought with burned CPU shows in cpu_s_per_sim_s.",
		rep:       "network.Run, 256 cells x 1024 UEs, 10 sim-s, MeanDwell 3 s, Workers=min(nproc,4); the fingerprint must equal a Workers=1 run made during set-up",
		hot:       "network (barrier, epochPool), lte (PF Cell), ratecontrol, simclock",
		cold:      "session, media path, rtp, netsim, obs, realnet",
		prepare:   prepareCity(laneCity, 256, 1024, true, false),
		companion: prepareCity(laneCity, 256, 1024, false, false),
		city:      citySize{cells: 256, ues: 1024, parallel: true},
	},
	{
		name:    "city-sparse",
		why:     "1024 cells for 256 UEs: at least three quarters of the cells host nobody, so time is idle subframes, clock dispatch and per-epoch coordinator overhead.",
		rep:     "network.Run, 1024 cells x 256 UEs, 10 sim-s, MeanDwell 3 s, Workers=1",
		hot:     "simclock, lte (idle subframe), network (coordinator)",
		cold:    "session, media path, rtp, netsim, obs, realnet",
		prepare: prepareCity(laneSparse, 1024, 256, false, false),
		city:    citySize{cells: 1024, ues: 256},
	},
	{
		name:      "city-telemetry",
		why:       "A 64-cell city with Agg and a binary Sink on: the obs bus, P6T encoder, spill flush and ShardAgg dominate. Every other workload runs with nil probes.",
		rep:       "network.Run, 64 cells x 256 UEs, 10 sim-s, MeanDwell 3 s, Workers=1, Agg = fresh obs.ShardAgg, Sink = obs.BinWriter over a byte-counting discard writer",
		hot:       "obs (bus, encoder, spill, ShardAgg), lte, network",
		cold:      "session, media path, rtp, netsim, realnet",
		prepare:   prepareCity(laneTelemetry, 64, 256, false, true),
		companion: prepareCity(laneTelemetry, 64, 256, false, false),
		city:      citySize{cells: 64, ues: 256},
	},
	{
		name:    "live-wire",
		why:     "The real-transport stack on virtual time and an in-memory shaped wire (no socket is crossed): rtp wire codec, realnet jitter buffer, reports and synthesized diag do the work.",
		rep:     "8 virtual-time live calls of 60 sim-s wired as cmd/poi360-live wires them: RC {FBCC, GCC} x wire {3 Mbit/s 20 ms, 1.5 Mbit/s 40 ms, 3 Mbit/s with a 1 s outage every 15 s, 6 Mbit/s 10 ms}",
		hot:     "realnet, rtp (wire codec, pacer, reassembler), media path, ratecontrol, netsim (Queue, DelayLink), simclock",
		cold:    "lte, network, session, obs",
		prepare: prepareLiveWire,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
