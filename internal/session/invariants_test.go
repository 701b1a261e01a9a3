package session

import (
	"fmt"
	"testing"
	"time"

	"poi360/internal/headmotion"
	"poi360/internal/lte"
	"poi360/internal/metrics"
	"poi360/internal/video"
)

// TestSessionInvariants runs one session per row and holds its result to
// an invariant: a complaint, or "".
func TestSessionInvariants(t *testing.T) {
	delivers := func(res *Result) string {
		if res.FramesDelivered == 0 {
			return "no frames delivered"
		}
		return ""
	}
	rows := []struct {
		name  string
		cfg   Config
		check func(res *Result) string
	}{
		// Every delivered or lost frame was sent (a few in flight at the end).
		{"frame conservation", Config{Duration: 20 * time.Second, Seed: 31, Cell: lte.ProfileCampus}, func(res *Result) string {
			if res.FramesDelivered+res.FramesLost > res.FramesSent+5 {
				return fmt.Sprintf("sent %d, delivered %d, lost %d", res.FramesSent, res.FramesDelivered, res.FramesLost)
			}
			return ""
		}},
		// A weak, loaded, fast-moving cell and the most restless user:
		// the transport still moves, in time order.
		{"hostile environment", Config{Duration: 45 * time.Second, Seed: 32, RC: RCFBCC, User: headmotion.Users[4],
			Cell: lte.CellProfile{RSSdBm: -118, BackgroundLoad: 0.6, SpeedMph: 55, Seed: 32}}, func(res *Result) string {
			if fr := res.FreezeRatio(); fr < 0 || fr > 1 || res.FramesDelivered == 0 && res.FramesLost == 0 {
				return fmt.Sprintf("freeze ratio %v, %d delivered, %d lost", fr, res.FramesDelivered, res.FramesLost)
			}
			for i := 1; i < len(res.ROILevels); i++ {
				if res.ROILevels[i].At < res.ROILevels[i-1].At {
					return "delivery timestamps went backwards"
				}
			}
			return ""
		}},
		{"mode indices in [1, 8]", Config{Duration: 30 * time.Second, Seed: 33, Cell: lte.ProfileBusy, User: headmotion.Users[4]}, func(res *Result) string {
			for _, m := range res.Modes {
				if m.V < 1 || m.V > 8 {
					return fmt.Sprintf("mode %v", m.V)
				}
			}
			return ""
		}},
		{"rates in (0, 50 Mbit/s]", Config{Duration: 20 * time.Second, Seed: 34, RC: RCFBCC}, func(res *Result) string {
			for _, s := range append(res.VideoRate, res.RTPRate...) {
				if s.V <= 0 || s.V > 50e6 {
					return fmt.Sprintf("rate %v implausible", s.V)
				}
			}
			return ""
		}},
		{"no warmup records early", Config{Duration: 10 * time.Second, Seed: 35, StatsWarmup: -1}, func(res *Result) string {
			if len(res.ROILevels) == 0 || res.ROILevels[0].At > time.Second {
				return fmt.Sprintf("%d samples, the first after a second", len(res.ROILevels))
			}
			return ""
		}},
		{"mismatch within the run", Config{Duration: 20 * time.Second, Seed: 37, Cell: lte.ProfileBusy}, func(res *Result) string {
			for _, m := range res.Mismatch {
				if m.V < 0 || m.V > 20 {
					return fmt.Sprintf("mismatch sample %v s", m.V)
				}
			}
			return ""
		}},
		{"throughput within the raw rate", Config{Duration: 30 * time.Second, Seed: 38, Network: Wireline}, func(res *Result) string {
			for i, thr := range res.Throughput {
				if thr > video.RawBitsPerSec*1.05 {
					return fmt.Sprintf("second %d carries %v bit/s", i, thr)
				}
			}
			return ""
		}},
		// Percentiles in order, none below the pipeline delay.
		{"delay floor", Config{Duration: 20 * time.Second, Seed: 39}, func(res *Result) string {
			d := res.DelaySummary()
			if !(float64(res.Config.PipelineDelay/time.Millisecond) <= d.Min && d.Min <= d.Median && d.Median <= d.P90 && d.P90 <= d.Max) {
				return fmt.Sprintf("delay %+v, pipeline %v", d, res.Config.PipelineDelay)
			}
			return ""
		}},
		{"warmup boundary tick included", Config{Duration: 10 * time.Second, Seed: 7, StatsWarmup: 2 * time.Second}, func(res *Result) string {
			if len(res.Throughput) != 9 {
				return fmt.Sprintf("%d throughput samples, want 9", len(res.Throughput))
			}
			return ""
		}},
		{"wireline", Config{Duration: 20 * time.Second, Network: Wireline, Seed: 2}, func(res *Result) string {
			if res.FramesDelivered == 0 || len(res.Diag) != 0 || res.DelaySummary().Median > 400 {
				return fmt.Sprintf("%d delivered, %d modem diags, median delay %v ms", res.FramesDelivered, len(res.Diag), res.DelaySummary().Median)
			}
			return ""
		}},
		{"Conduit runs", Config{Duration: 8 * time.Second, Scheme: SchemeConduit, Seed: 4}, delivers},
		{"Pyramid runs", Config{Duration: 8 * time.Second, Scheme: SchemePyramid, Seed: 4}, delivers},
		{"POI360 runs", Config{Duration: 8 * time.Second, Scheme: SchemeAdaptive, Seed: 4}, delivers},
		// FBCC's pacer leaves the video rate (Eq. 7).
		{"FBCC paces apart", Config{Duration: 30 * time.Second, RC: RCFBCC, Seed: 5}, func(res *Result) string {
			for i := range res.RTPRate {
				if res.RTPRate[i].V != res.VideoRate[i].V {
					return delivers(res)
				}
			}
			return "FBCC pacer rate never left the video rate"
		}},
		// One key: a fixed gaze. The last quarter is near the top quality.
		{"static viewer converges", Config{Duration: 20 * time.Second, Seed: 6, UserModel: &headmotion.Scripted{Keys: []headmotion.Key{{}}}},
			func(res *Result) string {
				if tail := metrics.Summarize(res.ROIPSNRs[len(res.ROIPSNRs)*3/4:]); tail.Mean < 30 {
					return fmt.Sprintf("tail PSNR %v dB", tail.Mean)
				}
				return ""
			}},
		{"mismatch recorded, non-negative, sometimes positive", Config{Duration: 10 * time.Second, Seed: 7, User: headmotion.Users[4]}, func(res *Result) string {
			positive := false
			for _, m := range res.Mismatch {
				if m.V < 0 {
					return "negative mismatch"
				}
				positive = positive || m.V > 0
			}
			if !positive {
				return fmt.Sprintf("%d mismatch samples, none positive", len(res.Mismatch))
			}
			return ""
		}},
		{"adaptive modes move", Config{Duration: 60 * time.Second, Seed: 8, User: headmotion.Users[4], Cell: lte.ProfileBusy}, func(res *Result) string {
			for _, m := range res.Modes {
				if m.V != res.Modes[0].V {
					return ""
				}
			}
			return "the adaptive controller never switched modes"
		}},
		{"throughput samples cover the run", Config{Duration: 15 * time.Second, Seed: 9}, func(res *Result) string {
			if n := len(res.Throughput); n < 12 || n > 13 {
				return fmt.Sprintf("%d throughput samples, want 12-13", n)
			}
			return ""
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if msg := r.check(run(t, r.cfg)); msg != "" {
				t.Error(msg)
			}
		})
	}
}

func TestROIPredictionRuns(t *testing.T) {
	cfg := Config{Duration: 15 * time.Second, Seed: 36, ROIPrediction: true, User: headmotion.Users[3]}
	a := run(t, cfg)
	b := run(t, cfg)
	if a.PSNRSummary().Mean != b.PSNRSummary().Mean {
		t.Fatal("prediction broke determinism")
	}
	if a.FramesDelivered == 0 {
		t.Fatal("prediction session delivered nothing")
	}
}
