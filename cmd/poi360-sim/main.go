// Command poi360-sim runs a single 360° telephony session and prints its
// headline metrics, mirroring one of the paper's field-test runs.
//
// Usage examples:
//
//	poi360-sim                                        # defaults: POI360/GCC, cellular
//	poi360-sim -rc fbcc -cell campus -user scanner
//	poi360-sim -scheme conduit -network wireline -duration 2m
//	poi360-sim -rss -115 -load 0.3 -speed 30          # custom radio environment
//	poi360-sim -runs 10 -workers 4                    # 10 seeds on a 4-worker pool
//	poi360-sim -users 4 -rc fbcc -cell campus         # 4 senders contend in ONE cell
//	poi360-sim -rc fbcc -faults diag-stall            # scripted disturbance scenario
//	poi360-sim -rc fbcc -faults handover -no-watchdog # paper prototype under faults
//	poi360-sim -cells 100 -users 1000 -mobility 4s    # multi-cell city, emergent handover
//	poi360-sim -rc fbcc -obs out.pbt                  # stream telemetry to a P6T file
//	poi360-sim -cells 64 -users 256 -obs city.pbt     # city telemetry, bounded memory
//	poi360-sim -rc fbcc -cell campus -series diag     # modem diagnostics as CSV
//	poi360-sim -cell campus -users 3 -series rates -session 1
//
// With -runs N the session repeats N times under collision-free derived
// seeds (poi360.DeriveSeed), fanned out over a bounded worker pool; the
// per-run summaries print in run order and are identical at any -workers.
//
// -obs streams every telemetry event to a P6T binary file with bounded
// memory and prints the metric registry and, under FBCC, the congestion-
// episode statistics; poi360-trace reads the file back (JSONL, registry,
// episodes, or a live tail).
//
// -series replaces the summary with one of the session's time series as
// CSV — the raw material behind the paper's time-domain plots: rates
// (encoder rate Rv, pacing rate Rrtp, adaptive mode index), frames
// (per-frame delay, ROI PSNR and ROI level), diag (firmware-buffer level
// and granted TBS rate, the modem diagnostics) or mismatch (the mismatch
// time M). Under -users N, -session k picks whose series.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"poi360"
)

func main() {
	var (
		duration = flag.Duration("duration", 60*time.Second, "session length")
		network  = flag.String("network", "cellular", "cellular or wireline")
		scheme   = flag.String("scheme", "poi360", "poi360, conduit, pyramid")
		rc       = flag.String("rc", "gcc", "gcc or fbcc")
		user     = flag.String("user", "typical", "user profile (calm, typical, curious, restless, scanner)")
		cell     = flag.String("cell", "", "named cell: strong, moderate, weak, busy, campus")
		rss      = flag.Float64("rss", 0, "custom RSS in dBm (overrides -cell)")
		load     = flag.Float64("load", 0.1, "background load for custom cell")
		speed    = flag.Float64("speed", 0, "vehicle speed in mph for custom cell")
		seed     = flag.Int64("seed", 1, "random seed")
		mosOut   = flag.Bool("mos", false, "also print the MOS distribution")
		runs     = flag.Int("runs", 1, "repeat the session this many times under derived seeds")
		users    = flag.Int("users", 1, "contend N sessions in ONE shared cell (PF uplink scheduler); user profiles cycle")
		workers  = flag.Int("workers", 0, "max concurrent runs (0 = GOMAXPROCS, 1 = sequential)")
		faultsIn = flag.String("faults", "", "scripted disturbance scenario (see -list-faults)")
		listF    = flag.Bool("list-faults", false, "list fault scenarios and exit")
		noWD     = flag.Bool("no-watchdog", false, "disable FBCC's diag-staleness watchdog (paper prototype behaviour)")
		obsOut   = flag.String("obs", "", "stream telemetry to this P6T file (.pbt) with bounded memory and print the registry and FBCC episode stats; read it with poi360-trace")
		series   = flag.String("series", "", "print one time series as CSV instead of the summary: rates, frames, diag, mismatch")
		sessIdx  = flag.Int("session", 0, "which shared-cell session's -series to print (with -users N)")
		cells    = flag.Int("cells", 0, "run the multi-cell city simulation with this many cells; -users sets the UE population and -rc the controller mix (gcc, fbcc, or split)")
		mobility = flag.Duration("mobility", 0, "mean cell dwell of the city's mobility traces (0 = static UEs; only with -cells)")
	)
	flag.Parse()

	if *listF {
		for _, n := range poi360.FaultScenarios() {
			fmt.Println(n)
		}
		return
	}

	if *series != "" {
		if seriesCSV[*series] == nil {
			fatal("unknown series %q (rates, frames, diag, mismatch)", *series)
		}
		if *runs > 1 || *cells > 0 || *obsOut != "" {
			fatal("-series is incompatible with -runs, -cells and -obs (it prints one session)")
		}
	}
	if *sessIdx != 0 {
		if *series == "" {
			fatal("-session needs -series")
		}
		if *sessIdx < 0 || *sessIdx >= *users {
			fatal("-session %d outside [0, %d) (-users)", *sessIdx, *users)
		}
	}
	if *obsOut != "" && *runs > 1 {
		fatal("-obs and -runs are mutually exclusive (one trace file, one run)")
	}

	if *cells > 0 {
		if *runs > 1 || *faultsIn != "" {
			fatal("-cells is incompatible with -runs and -faults (city handovers are emergent, not scripted)")
		}
		if err := runCity(*cells, *users, *duration, *mobility, *seed, *workers, *rc, *obsOut); err != nil {
			fatal("%v", err)
		}
		return
	}
	if *mobility != 0 {
		fatal("-mobility needs -cells (the multi-cell city mode)")
	}

	cfg := poi360.SessionConfig{Duration: *duration, Seed: *seed}

	switch *network {
	case "cellular":
		cfg.Network = poi360.Cellular
	case "wireline":
		cfg.Network = poi360.Wireline
	default:
		fatal("unknown network %q", *network)
	}

	switch *scheme {
	case "poi360", "adaptive":
		cfg.Scheme = poi360.SchemeAdaptive
	case "conduit":
		cfg.Scheme = poi360.SchemeConduit
	case "pyramid":
		cfg.Scheme = poi360.SchemePyramid
	default:
		fatal("unknown scheme %q", *scheme)
	}

	switch *rc {
	case "gcc":
		cfg.RC = poi360.RCGCC
	case "fbcc":
		cfg.RC = poi360.RCFBCC
	default:
		fatal("unknown rate control %q", *rc)
	}

	u, err := poi360.UserByName(*user)
	if err != nil {
		fatal("%v", err)
	}
	cfg.User = u

	switch *cell {
	case "":
		// default or custom via -rss
	case "strong":
		cfg.Cell = poi360.CellStrongIdle
	case "moderate":
		cfg.Cell = poi360.CellModerate
	case "weak":
		cfg.Cell = poi360.CellWeak
	case "busy":
		cfg.Cell = poi360.CellBusy
	case "campus":
		cfg.Cell = poi360.CellCampus
	default:
		fatal("unknown cell %q", *cell)
	}
	if *rss != 0 {
		cfg.Cell = poi360.CellProfile{RSSdBm: *rss, BackgroundLoad: *load, SpeedMph: *speed, Seed: *seed}
	}

	if *faultsIn != "" {
		script, err := poi360.MakeFaultScenario(*faultsIn, *duration)
		if err != nil {
			fatal("%v", err)
		}
		cfg.Faults = script
	}
	if *noWD {
		cfg.FBCCWatchdogReports = -1
	}

	if *users > 1 {
		if *runs > 1 {
			fatal("-users and -runs are mutually exclusive")
		}
		if cfg.Network != poi360.Cellular {
			fatal("-users needs the cellular network (a shared LTE cell)")
		}
	}

	// One clock, one shard: the whole scenario spills as shard 0, flushed
	// whenever 64 KiB accumulates — bounded memory at any duration.
	tel, err := openTelemetry(*obsOut, 0, 64<<10)
	if err != nil {
		fatal("%v", err)
	}

	if *users > 1 {
		results, err := runSharedCell(cfg, *users, tel.bus())
		if err != nil {
			fatal("%v", err)
		}
		if *series != "" {
			printSeries(*series, results[*sessIdx])
			return
		}
		printSharedCell(results)
		tel.finish(cfg.RC == poi360.RCFBCC)
		return
	}

	if *runs > 1 {
		if err := runMany(cfg, *runs, *workers, *mosOut); err != nil {
			fatal("%v", err)
		}
		return
	}

	if bus := tel.bus(); bus != nil {
		cfg.Obs = bus.Probe(0)
	}
	res, err := poi360.RunSession(cfg)
	if err != nil {
		fatal("%v", err)
	}
	if *series != "" {
		printSeries(*series, res)
		return
	}

	fmt.Println(poi360.Summary(res))
	d := res.DelaySummary()
	p := res.PSNRSummary()
	fmt.Printf("  delay   : median %.0f ms, P90 %.0f ms, P99 %.0f ms\n", d.Median, d.P90, d.P99)
	fmt.Printf("  quality : mean %.1f dB (std %.1f), min %.1f, max %.1f\n", p.Mean, p.Std, p.Min, p.Max)
	fmt.Printf("  frames  : sent %d, delivered %d, lost %d, packet drops %d\n",
		res.FramesSent, res.FramesDelivered, res.FramesLost, res.PacketDrops)
	if res.Config.RC == poi360.RCFBCC {
		fmt.Printf("  fbcc    : %d uplink overuse detections, %d watchdog degradations\n",
			res.FBCCOveruses, res.FBCCDegradations)
	}
	if !res.Config.Faults.Empty() {
		fmt.Printf("  faults  : %d diag reports suppressed, %d stale feedback discarded\n",
			res.DiagStalled, res.StaleFeedback)
	}
	if *mosOut {
		pdf := res.MOSPDF()
		fmt.Printf("  MOS     : bad %.1f%%, poor %.1f%%, fair %.1f%%, good %.1f%%, excellent %.1f%%\n",
			100*pdf[0], 100*pdf[1], 100*pdf[2], 100*pdf[3], 100*pdf[4])
	}
	tel.finish(res.Config.RC == poi360.RCFBCC)
}

// telemetry is one -obs trace: a bus spilling P6T into the file as one
// shard, and the streaming aggregate the registry and episode lines are
// printed from. No event is retained in memory. The nil *telemetry (no
// -obs) is valid and does nothing.
type telemetry struct {
	path string
	f    *os.File
	w    *poi360.TelemetryBinWriter
	b    *poi360.TelemetryBus
	agg  *poi360.TelemetryShardAgg
}

// openTelemetry creates path and spills a fresh bus into it as shard;
// autoFlush is Bus.SpillTo's. An empty path means no telemetry.
func openTelemetry(path string, shard int32, autoFlush int) (*telemetry, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t := &telemetry{path: path, f: f, w: poi360.NewTelemetryBinWriter(f),
		b: poi360.NewTelemetryBus(), agg: poi360.NewTelemetryShardAgg()}
	t.b.DisableRetention()
	t.b.SpillTo(t.w, shard, autoFlush)
	t.agg.Bind(shard, t.b)
	return t, nil
}

func (t *telemetry) bus() *poi360.TelemetryBus {
	if t == nil {
		return nil
	}
	return t.b
}

// finish finalizes the stream — gauges spilled, buffers flushed, file
// closed — and prints the streaming aggregates: the registry merged
// across shards and, for FBCC sessions, the congestion-episode
// statistics. A failed write is fatal, with the bytes it dropped.
func (t *telemetry) finish(fbcc bool) {
	if t == nil {
		return
	}
	t.b.FinishSpill()
	if err := t.w.Err(); err != nil {
		t.f.Close()
		fatal("obs: %v (%d bytes reached %s, %d dropped)", err, t.w.Bytes(), t.path, t.w.Dropped())
	}
	if err := t.f.Close(); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("  obs     : %d bytes -> %s\n", t.w.Bytes(), t.path)
	fmt.Print(t.agg.Merged().Table())
	if fbcc {
		printEpisodes(t.agg.Summary())
	}
}

// seriesCSV writes one -series of a session result: a header row, then
// one row per sample. Rows go through csv.Writer, whose first write error
// latches and is reported by writeSeries.
var seriesCSV = map[string]func(w *csv.Writer, res *poi360.SessionResult){
	"rates": func(w *csv.Writer, res *poi360.SessionResult) {
		w.Write([]string{"t_s", "rv_bps", "rrtp_bps", "mode"})
		for i := range res.VideoRate {
			w.Write([]string{num(res.VideoRate[i].At.Seconds()), num(res.VideoRate[i].V), num(res.RTPRate[i].V), num(res.Modes[i].V)})
		}
	},
	"frames": func(w *csv.Writer, res *poi360.SessionResult) {
		w.Write([]string{"t_s", "delay_ms", "roi_psnr_db", "roi_level"})
		for i := range res.ROILevels {
			w.Write([]string{num(res.ROILevels[i].At.Seconds()),
				num(float64(res.FrameDelays[i]) / float64(time.Millisecond)), num(res.ROIPSNRs[i]), num(res.ROILevels[i].V)})
		}
	},
	"diag": func(w *csv.Writer, res *poi360.SessionResult) {
		w.Write([]string{"t_s", "buffer_bytes", "tbs_bps"})
		for _, d := range res.Diag {
			w.Write([]string{num(d.At.Seconds()), strconv.Itoa(d.BufferBytes), num(d.TBSRate)})
		}
	},
	"mismatch": func(w *csv.Writer, res *poi360.SessionResult) {
		w.Write([]string{"t_s", "m_s"})
		for _, m := range res.Mismatch {
			w.Write([]string{num(m.At.Seconds()), num(m.V)})
		}
	},
}

// writeSeries writes the named series of res to out as CSV and returns
// the first write error.
func writeSeries(out io.Writer, name string, res *poi360.SessionResult) error {
	w := csv.NewWriter(out)
	seriesCSV[name](w, res)
	w.Flush()
	return w.Error()
}

func printSeries(name string, res *poi360.SessionResult) {
	if err := writeSeries(os.Stdout, name, res); err != nil {
		fatal("%v", err)
	}
}

func num(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }

func printEpisodes(st poi360.CongestionEpisodeStats) {
	fmt.Printf("  episodes: %d congestion episodes (%d triggers), mean %.0f ms, max %.0f ms, mean hold %.0f ms, %d aborted, %d open\n",
		st.Count, st.Triggers,
		1e3*st.MeanDuration.Seconds(), 1e3*st.MaxDuration.Seconds(), 1e3*st.MeanHeld.Seconds(),
		st.Aborted, st.Incomplete)
}

// runMany repeats the session n times under collision-free derived seeds,
// fanned out over a bounded worker pool, then prints each run's summary in
// run order followed by an aggregate line. The output is byte-identical
// for any worker count: results are slotted by run index and printed only
// after every run completes.
func runMany(base poi360.SessionConfig, n, workers int, mosOut bool) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	type slot struct {
		res *poi360.SessionResult
		err error
	}
	slots := make([]slot, n)
	runOne := func(i int) {
		cfg := base
		cfg.Seed = poi360.DeriveSeed(base.Seed, 0, i)
		slots[i].res, slots[i].err = poi360.RunSession(cfg)
	}

	var cursor atomic.Int64
	cursor.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1))
				if i >= n {
					return
				}
				runOne(i)
			}
		}()
	}
	wg.Wait()

	var psnr, freeze, delay, thr float64
	for i, s := range slots {
		if s.err != nil {
			return fmt.Errorf("run %d: %w", i, s.err)
		}
		fmt.Printf("run %2d: %s\n", i, poi360.Summary(s.res))
		psnr += s.res.PSNRSummary().Mean
		freeze += s.res.FreezeRatio()
		delay += s.res.DelaySummary().Median
		thr += s.res.ThroughputSummary().Mean
		if mosOut {
			pdf := s.res.MOSPDF()
			fmt.Printf("        MOS: bad %.1f%%, poor %.1f%%, fair %.1f%%, good %.1f%%, excellent %.1f%%\n",
				100*pdf[0], 100*pdf[1], 100*pdf[2], 100*pdf[3], 100*pdf[4])
		}
	}
	fn := float64(n)
	fmt.Printf("aggregate over %d runs: PSNR %.1f dB, median delay %.0f ms, freeze %.2f%%, throughput %.2f Mbps\n",
		n, psnr/fn, delay/fn, 100*freeze/fn, thr/fn/1e6)
	return nil
}

// runSharedCell contends n copies of the base session in one shared LTE
// cell: one simulation clock, one radio resource, per-subframe proportional-
// fair grants. User profiles cycle through the five paper participants and
// per-user seeds derive from -seed inside the scenario, so the results are
// a pure function of the flags.
func runSharedCell(base poi360.SessionConfig, n int, bus *poi360.TelemetryBus) ([]*poi360.SessionResult, error) {
	mc := poi360.MultiSessionConfig{
		Duration: base.Duration,
		Cell:     base.Cell,
		Path:     base.Path,
		Seed:     base.Seed,
		Faults:   base.Faults, // capacity events hit the shared cell
		Obs:      bus,         // session i emits on sub-stream i, cell faults on -1
	}
	for i := 0; i < n; i++ {
		cfg := base
		cfg.Seed = 0 // derived per user inside RunSharedCell
		cfg.User = poi360.Users[i%len(poi360.Users)]
		mc.Sessions = append(mc.Sessions, cfg)
	}
	return poi360.RunSharedCell(mc)
}

// printSharedCell prints each shared-cell session's summary, then the
// cell's total throughput and Jain fairness.
func printSharedCell(results []*poi360.SessionResult) {
	shares := make([]float64, len(results))
	var total float64
	for i, r := range results {
		shares[i] = r.ThroughputSummary().Mean
		total += shares[i]
		fmt.Printf("user %2d (%s): %s\n", i, r.Config.User.Name, poi360.Summary(r))
	}
	fmt.Printf("shared cell with %d users: total %.2f Mbps, Jain fairness %.3f\n",
		len(results), total/1e6, poi360.JainFairness(shares))
}

// runCity runs the multi-cell city simulation: -cells LTE cells as
// event shards, -users UE endpoints with grid-walk mobility, handovers
// emerging wherever a trace crosses a cell border. The printout is a pure
// function of the flags at any -workers.
func runCity(cells, ues int, duration, mobility time.Duration, seed int64, workers int, rc, obsOut string) error {
	var mix string
	switch rc {
	case "gcc":
		mix = poi360.CityMixGCC
	case "fbcc":
		mix = poi360.CityMixFBCC
	case "split":
		mix = poi360.CityMixSplit
	default:
		return fmt.Errorf("city mode: -rc must be gcc, fbcc, or split, got %q", rc)
	}
	// Coordinator traffic (handovers, fault markers) spills as shard -1;
	// per-cell radio shards 0..C-1 come from CityConfig.Sink. The city
	// flushes every shard at its clock barriers in shard-id order, so the
	// file is byte-identical at any -workers.
	tel, err := openTelemetry(obsOut, -1, 0)
	if err != nil {
		return err
	}
	cc := poi360.CityConfig{
		Cells:     cells,
		UEs:       ues,
		Duration:  duration,
		Seed:      seed,
		MeanDwell: mobility,
		Workers:   workers,
		Mix:       mix,
	}
	if tel != nil {
		cc.Obs, cc.Agg, cc.Sink = tel.b, tel.agg, tel.w
	}
	res, err := poi360.RunCity(cc)
	if err != nil {
		return err
	}
	fmt.Println(res.Summarize())
	var lost, frozen, sent int
	for _, u := range res.PerUE {
		sent += u.FramesSent
		lost += u.FramesLost()
		frozen += u.FramesFrozen
	}
	fmt.Printf("  frames  : sent %d, lost %d, frozen %d (measured after warmup %v)\n", sent, lost, frozen, res.Warmup)
	fmt.Printf("  radio   : per-cell Jain mean %.3f over occupied cells, global Jain %.3f\n",
		res.MeanPerCellJain(), res.JainGlobal)
	tel.finish(false)
	return nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
