// Command poi360-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	poi360-bench                         # run every experiment at full scale
//	poi360-bench -experiment fig16a      # one experiment
//	poi360-bench -experiment faults      # FBCC graceful degradation under fault scripts
//	poi360-bench -quick                  # shrunken sessions (seconds, not minutes)
//	poi360-bench -workers 1              # force sequential sessions (same output)
//	poi360-bench -csv out/               # also dump raw curves as CSV
//	poi360-bench -list                   # list experiment IDs
//	poi360-bench -cpuprofile cpu.pprof   # write a CPU profile of the run
//	poi360-bench -memprofile mem.pprof   # write a heap profile at exit
//
// Speed is not measured here: the repository's one performance ledger is
// benchmark/ (see benchmark/README.md).
//
// Sessions of a batch run on a bounded worker pool (default GOMAXPROCS);
// for a fixed -seed the printed tables are byte-identical at any -workers.
//
// Each experiment prints the paper's reported result next to the measured
// one so the reproduction quality is visible at a glance.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"poi360"
	"poi360/internal/trace"
)

func main() {
	// All work happens in run so deferred cleanup — most importantly
	// pprof.StopCPUProfile and the heap-profile write — runs on every
	// exit path, including a failed experiment.
	os.Exit(run())
}

func run() int {
	var (
		expID   = flag.String("experiment", "all", "experiment ID (see -list) or 'all'")
		quick   = flag.Bool("quick", false, "shrink sessions for a fast pass")
		seed    = flag.Int64("seed", 0, "seed offset for all sessions")
		users   = flag.Int("users", 0, "override number of user profiles (1-5)")
		repeats = flag.Int("repeats", 0, "override per-user session repeats")
		secs    = flag.Int("session-seconds", 0, "override per-session duration")
		csvDir  = flag.String("csv", "", "directory to dump raw curve CSVs into")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		verbose = flag.Bool("v", false, "print per-session progress")
		workers = flag.Int("workers", 0, "max concurrent sessions per batch (0 = GOMAXPROCS, 1 = sequential; output is identical either way for a fixed -seed)")
		obsOn   = flag.Bool("obs", false, "collect FBCC congestion-episode telemetry and print a per-experiment episode table (does not change any experiment output)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile (after GC) to this file at exit")
	)
	flag.Parse()
	if err := checkScale(*users, *repeats, *secs, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, e := range poi360.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return 0
	}

	opts := poi360.ExperimentOptions{
		Quick:   *quick,
		Seed:    *seed,
		Users:   *users,
		Repeats: *repeats,
		Workers: *workers,
		// One memo for the invocation: experiments that compare the same
		// campus-grid batch run it once.
		Memo: poi360.NewExperimentMemo(),
	}
	if *secs > 0 {
		opts.SessionTime = time.Duration(*secs) * time.Second
	}
	if *verbose {
		opts.Progress = os.Stderr
	}

	var todo []poi360.Experiment
	if *expID == "all" {
		todo = poi360.Experiments()
	} else {
		found := false
		for _, e := range poi360.Experiments() {
			if e.ID == *expID {
				todo = append(todo, e)
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *expID)
			return 2
		}
	}

	start := time.Now()
	for _, e := range todo {
		fmt.Printf("=== %s: %s\n", e.ID, e.Title)
		fmt.Printf("    paper: %s\n", e.Paper)
		t0 := time.Now()
		if *obsOn {
			// Fresh aggregator per experiment: the episode table below the
			// experiment's own output covers exactly its FBCC batches.
			opts.Obs = poi360.NewTelemetryAgg()
		}
		rep, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			return 1
		}
		for _, tab := range rep.Tables {
			fmt.Println()
			tab.Fprint(os.Stdout)
		}
		if opts.Obs != nil && opts.Obs.Rows() > 0 {
			fmt.Println()
			opts.Obs.Table().Fprint(os.Stdout)
		}
		if *csvDir != "" && len(rep.Series) > 0 {
			if err := dumpSeries(*csvDir, e.ID, rep.Series); err != nil {
				fmt.Fprintf(os.Stderr, "csv dump failed: %v\n", err)
				return 1
			}
		}
		fmt.Printf("\n    (%s in %.1fs)\n\n", e.ID, time.Since(t0).Seconds())
	}
	fmt.Printf("completed %d experiments in %.1fs\n", len(todo), time.Since(start).Seconds())
	return 0
}

// checkScale rejects scale flags the experiments would otherwise clamp or
// quietly replace with their defaults: 0 means "default" for each of them,
// and -users names at most the five user profiles.
func checkScale(users, repeats, secs, workers int) error {
	switch {
	case users < 0 || users > 5:
		return fmt.Errorf("-users must be 1-5 (0 = default), got %d", users)
	case repeats < 0:
		return fmt.Errorf("-repeats must not be negative (0 = default), got %d", repeats)
	case secs < 0:
		return fmt.Errorf("-session-seconds must not be negative (0 = default), got %d", secs)
	case workers < 0:
		return fmt.Errorf("-workers must not be negative (0 = GOMAXPROCS), got %d", workers)
	}
	return nil
}

func dumpSeries(dir, id string, series []trace.Series) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, id+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteSeriesCSV(f, series...); err != nil {
		return err
	}
	fmt.Printf("    wrote %s\n", path)
	return nil
}
