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
//	poi360-sim -rc fbcc -obs-bin out.pbt              # stream telemetry to a binary file
//	poi360-sim -cells 64 -users 256 -obs-bin city.pbt # city telemetry, bounded memory
//
// With -runs N the session repeats N times under collision-free derived
// seeds (poi360.DeriveSeed), fanned out over a bounded worker pool; the
// per-run summaries print in run order and are identical at any -workers.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
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
		obsOut   = flag.String("obs", "", "write telemetry events (JSONL) to this file; also prints the registry and FBCC episode stats")
		obsBin   = flag.String("obs-bin", "", "stream telemetry to this binary file (.pbt) with bounded memory; decode with poi360-trace -from-bin")
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

	if *obsOut != "" && *obsBin != "" {
		fatal("-obs and -obs-bin are mutually exclusive (one trace format per run)")
	}

	if *cells > 0 {
		if *runs > 1 || *faultsIn != "" {
			fatal("-cells is incompatible with -runs and -faults (city handovers are emergent, not scripted)")
		}
		if err := runCity(*cells, *users, *duration, *mobility, *seed, *workers, *rc, *obsOut, *obsBin); err != nil {
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

	var (
		bus    *poi360.TelemetryBus
		binAgg *poi360.TelemetryShardAgg
		binW   *poi360.TelemetryBinWriter
		binF   *os.File
	)
	if *obsOut != "" || *obsBin != "" {
		if *runs > 1 {
			fatal("-obs/-obs-bin and -runs are mutually exclusive (one trace file, one run)")
		}
		bus = poi360.NewTelemetryBus()
		if *obsBin != "" {
			f, err := os.Create(*obsBin)
			if err != nil {
				fatal("%v", err)
			}
			binF = f
			binW = poi360.NewTelemetryBinWriter(f)
			binAgg = poi360.NewTelemetryShardAgg()
			// One clock, one shard: the whole scenario spills as shard 0,
			// flushed whenever 64 KiB accumulates — bounded memory at any
			// duration.
			bus.DisableRetention()
			bus.SpillTo(binW, 0, 64<<10)
			binAgg.Bind(0, bus)
		}
	}
	dumpTelemetry := func(fbcc bool) {
		if bus == nil {
			return
		}
		var err error
		if *obsBin != "" {
			err = dumpObsBin(bus, binAgg, binW, binF, *obsBin, fbcc)
		} else {
			err = dumpObs(bus, *obsOut, fbcc)
		}
		if err != nil {
			fatal("%v", err)
		}
	}

	if *users > 1 {
		if *runs > 1 {
			fatal("-users and -runs are mutually exclusive")
		}
		if cfg.Network != poi360.Cellular {
			fatal("-users needs the cellular network (a shared LTE cell)")
		}
		if err := runSharedCell(cfg, *users, bus); err != nil {
			fatal("%v", err)
		}
		dumpTelemetry(cfg.RC == poi360.RCFBCC)
		return
	}

	if *runs > 1 {
		if err := runMany(cfg, *runs, *workers, *mosOut); err != nil {
			fatal("%v", err)
		}
		return
	}

	if bus != nil {
		cfg.Obs = bus.Probe(0)
	}
	res, err := poi360.RunSession(cfg)
	if err != nil {
		fatal("%v", err)
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
	dumpTelemetry(res.Config.RC == poi360.RCFBCC)
}

// dumpObs writes the bus's event stream as JSONL and prints the metric
// registry plus, for FBCC sessions, the reconstructed congestion-episode
// statistics.
func dumpObs(bus *poi360.TelemetryBus, path string, fbcc bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := poi360.WriteTelemetryJSONL(f, bus.Events()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("  obs     : %d events -> %s\n", bus.Len(), path)
	fmt.Print(bus.Table())
	if fbcc {
		printEpisodes(poi360.SummarizeCongestionEpisodes(poi360.CongestionEpisodes(bus.Events())))
	}
	return nil
}

// dumpObsBin finalizes a binary telemetry stream — gauges spilled, buffers
// flushed, file closed — and prints the streaming aggregates: the registry
// merged across shards and, for FBCC sessions, the congestion-episode
// statistics. Both are byte-identical to what the in-memory -obs path
// prints, though no event was ever retained.
func dumpObsBin(bus *poi360.TelemetryBus, agg *poi360.TelemetryShardAgg, bw *poi360.TelemetryBinWriter, f *os.File, path string, fbcc bool) error {
	bus.FinishSpill()
	if err := bw.Err(); err != nil {
		f.Close()
		return fmt.Errorf("obs-bin: %w (%d bytes reached %s, %d dropped)", err, bw.Bytes(), path, bw.Dropped())
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("  obs-bin : %d bytes -> %s\n", bw.Bytes(), path)
	fmt.Print(agg.Merged().Table())
	if fbcc {
		printEpisodes(agg.Summary())
	}
	return nil
}

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
// per-user seeds derive from -seed inside the scenario, so the printout is
// a pure function of the flags.
func runSharedCell(base poi360.SessionConfig, n int, bus *poi360.TelemetryBus) error {
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
	results, err := poi360.RunSharedCell(mc)
	if err != nil {
		return err
	}
	shares := make([]float64, len(results))
	var total float64
	for i, r := range results {
		shares[i] = r.ThroughputSummary().Mean
		total += shares[i]
		fmt.Printf("user %2d (%s): %s\n", i, r.Config.User.Name, poi360.Summary(r))
	}
	fmt.Printf("shared cell with %d users: total %.2f Mbps, Jain fairness %.3f\n",
		n, total/1e6, poi360.JainFairness(shares))
	return nil
}

// runCity runs the multi-cell city simulation: -cells LTE cells as
// event shards, -users UE endpoints with grid-walk mobility, handovers
// emerging wherever a trace crosses a cell border. The printout is a pure
// function of the flags at any -workers.
func runCity(cells, ues int, duration, mobility time.Duration, seed int64, workers int, rc, obsOut, obsBin string) error {
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
	var (
		bus    *poi360.TelemetryBus
		binAgg *poi360.TelemetryShardAgg
		binW   *poi360.TelemetryBinWriter
		binF   *os.File
	)
	if obsOut != "" {
		bus = poi360.NewTelemetryBus()
	}
	if obsBin != "" {
		f, err := os.Create(obsBin)
		if err != nil {
			return err
		}
		binF = f
		binW = poi360.NewTelemetryBinWriter(f)
		binAgg = poi360.NewTelemetryShardAgg()
		// Coordinator traffic (handovers, fault markers) spills as shard
		// -1; per-cell radio shards 0..C-1 come from CityConfig.Sink. The
		// city flushes every shard at its clock barriers in shard-id
		// order, so the file is byte-identical at any -workers.
		bus = poi360.NewTelemetryBus()
		bus.DisableRetention()
		bus.SpillTo(binW, -1, 0)
		binAgg.Bind(-1, bus)
	}
	res, err := poi360.RunCity(poi360.CityConfig{
		Cells:     cells,
		UEs:       ues,
		Duration:  duration,
		Seed:      seed,
		MeanDwell: mobility,
		Workers:   workers,
		Mix:       mix,
		Obs:       bus,
		Agg:       binAgg,
		Sink:      binW,
	})
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
	if binW != nil {
		return dumpObsBin(bus, binAgg, binW, binF, obsBin, false)
	}
	if bus != nil {
		return dumpObs(bus, obsOut, false)
	}
	return nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
