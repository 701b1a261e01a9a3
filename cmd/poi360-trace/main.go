// Command poi360-trace reads a P6T telemetry stream (.pbt, written by
// poi360-sim -obs) and renders it: as JSONL, one typed, sim-clock-stamped
// event per line (frame encodes, FBCC triggers/pins/releases, LTE grants
// and diagnostics, queue drops, fault windows, handovers) — the default —
// as the merged metric registry (-view registry), or as the FBCC
// congestion-episode summary (-view episodes). With -live it tails a file
// that is still being written: a partial record at the tail stays
// buffered until the writer completes it, and the file is polled every
// -refresh until -live-for elapses (0 = tail forever).
//
// Usage:
//
//	poi360-trace out.pbt > events.jsonl
//	poi360-trace -view registry city.pbt
//	poi360-trace -view episodes out.pbt
//	poi360-trace -live -refresh 200ms -live-for 10s city.pbt
//
// A session's time series as CSV (rates, frames, diag, mismatch) come from
// poi360-sim -series.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"poi360"
)

func main() {
	var (
		view    = flag.String("view", "events", "what to render: events (JSONL), registry, episodes")
		live    = flag.Bool("live", false, "tail a still-growing stream instead of stopping at EOF")
		refresh = flag.Duration("refresh", 500*time.Millisecond, "poll interval while tailing with -live")
		liveFor = flag.Duration("live-for", 0, "stop a -live tail after this long (0 = tail forever)")
	)
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: poi360-trace [flags] FILE.pbt")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	if err := decode(f, os.Stdout, *view, *live, *refresh, *liveFor); err != nil {
		fatal("%v", err)
	}
}

// decode replays a binary telemetry stream through the streaming replayer:
// events render as JSONL the moment they decode, while the registry and
// episode views come from the replayer's shard aggregate. In live mode EOF
// means "writer not done yet": r is re-read every refresh — a partial
// record at the tail stays buffered until the writer completes it — and
// the tail stops once liveFor elapses (or never, when liveFor is 0). The
// first error writing to w ends the decode and is returned.
func decode(r io.Reader, w io.Writer, view string, live bool, refresh, liveFor time.Duration) error {
	switch view {
	case "events", "registry", "episodes":
	default:
		return fmt.Errorf("unknown -view %q (events, registry, episodes)", view)
	}
	out := bufio.NewWriter(w)
	agg := poi360.NewTelemetryShardAgg()
	rep := poi360.NewTelemetryReplayer(agg)
	var werr error // the first write error; OnEvent cannot return it
	if view == "events" {
		var line []byte
		rep.OnEvent = func(_ int32, e *poi360.TelemetryEvent) {
			line = append(poi360.AppendTelemetryEventJSON(line[:0], e), '\n')
			if _, err := out.Write(line); err != nil && werr == nil {
				werr = err
			}
		}
	}

	var deadline time.Time
	if live && liveFor > 0 {
		deadline = time.Now().Add(liveFor)
	}
	buf := make([]byte, 64<<10)
	for {
		n, rerr := r.Read(buf)
		if n > 0 {
			if err := rep.Feed(buf[:n]); err != nil {
				return err
			}
			if werr != nil {
				return werr
			}
		}
		if rerr == io.EOF {
			if !live {
				break
			}
			// A live consumer sees each event as it lands.
			if err := out.Flush(); err != nil {
				return err
			}
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				break
			}
			time.Sleep(refresh)
			continue
		}
		if rerr != nil {
			return rerr
		}
	}
	if err := rep.Finish(); err != nil {
		if !live {
			return err
		}
		// A deadline can expire mid-record while the writer is still
		// going; that is where the tail stopped, not corruption.
		fmt.Fprintf(os.Stderr, "live tail stopped mid-stream: %v\n", err)
	}

	switch view {
	case "registry":
		fmt.Fprint(out, agg.Merged().Table())
	case "episodes":
		fmt.Fprintln(out, agg.Summary())
	}
	return out.Flush()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
