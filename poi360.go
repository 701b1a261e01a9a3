// Package poi360 is a from-scratch Go reproduction of "POI360: Panoramic
// Mobile Video Telephony over LTE Cellular Networks" (Xie & Zhang, ACM
// CoNEXT 2017). It implements the paper's two contributions — adaptive
// ROI-based spatial compression for 360° video (§4.2) and Firmware-Buffer-
// aware Congestion Control over the LTE uplink (§4.3) — together with every
// substrate they need: a subframe-level LTE uplink model with modem
// diagnostics, an end-to-end network path, a tile-level 360° video
// pipeline, head-motion viewer models, a WebRTC-style GCC baseline, and the
// benchmark compression schemes (Conduit, Pyramid) the paper compares
// against.
//
// # Quick start
//
//	res, err := poi360.RunSession(poi360.SessionConfig{
//		Duration: 60 * time.Second,
//		Scheme:   poi360.SchemeAdaptive,
//		RC:       poi360.RCFBCC,
//	})
//	fmt.Printf("PSNR %.1f dB, freeze %.2f%%\n",
//		res.PSNRSummary().Mean, 100*res.FreezeRatio())
//
// # Reproducing the paper
//
// Every table and figure of the evaluation has a named experiment:
//
//	rep, err := poi360.RunExperiment("fig16a", poi360.ExperimentOptions{})
//	for _, t := range rep.Tables { fmt.Print(t) }
//
// or run `go test -bench .` / the poi360-bench command for the whole suite.
package poi360

import (
	"fmt"
	"io"
	"time"

	"poi360/internal/experiments"
	"poi360/internal/faults"
	"poi360/internal/headmotion"
	"poi360/internal/lte"
	"poi360/internal/metrics"
	"poi360/internal/netsim"
	"poi360/internal/network"
	"poi360/internal/obs"
	"poi360/internal/projection"
	"poi360/internal/session"
	"poi360/internal/trace"
	"poi360/internal/video"
)

// SessionConfig describes one telephony session. The zero value runs 60 s
// of POI360 adaptive compression over GCC on a strong idle cell with the
// "typical" user.
type SessionConfig = session.Config

// SessionResult holds every measurement of a finished session.
type SessionResult = session.Result

// RunSession executes one telephony session to completion.
func RunSession(cfg SessionConfig) (*SessionResult, error) { return session.Run(cfg) }

// MultiSessionConfig describes a shared-cell scenario: N sessions whose
// uplinks contend for one LTE cell under its proportional-fair subframe
// scheduler (one simulation clock, one radio resource).
type MultiSessionConfig = session.MultiConfig

// RunSharedCell executes a shared-cell scenario and returns one result per
// session, in Sessions order. It is the multi-user counterpart of
// RunSession: contention between the sessions emerges from per-subframe
// grant decisions instead of a background-load scalar. Deterministic for a
// fixed config at any outer concurrency.
func RunSharedCell(mc MultiSessionConfig) ([]*SessionResult, error) { return session.RunShared(mc) }

// CityConfig describes a multi-cell city simulation: hundreds of LTE
// cells as event shards run on demand, thousands of lightweight UE
// endpoints running the real FBCC/GCC controllers, and grid-walk mobility
// traces whose cell crossings trigger emergent handovers (detach, sized
// outage, watchdog degradation, re-attach, recovery). Deterministic for a
// fixed config at any Workers value.
type CityConfig = network.Config

// CityResult holds a finished city run: per-UE frame/handover/watchdog
// stats, per-cell and global Jain fairness, freeze ratios per controller
// population, and aggregate throughput.
type CityResult = network.Result

// RunCity executes one multi-cell city simulation to completion.
func RunCity(cfg CityConfig) (*CityResult, error) { return network.Run(cfg) }

// City rate-controller mixes (CityConfig.Mix).
const (
	CityMixSplit = network.MixSplit // even UE ids FBCC, odd GCC
	CityMixFBCC  = network.MixFBCC
	CityMixGCC   = network.MixGCC
)

// JainFairness returns Jain's fairness index (Σx)²/(n·Σx²) of a
// non-negative allocation — the standard fairness measure for per-UE
// throughput in a shared cell. Empty and all-zero allocations both score
// 1 (the equal-allocation limit; see internal/metrics).
func JainFairness(xs []float64) float64 { return metrics.JainFairness(xs) }

// Network kinds.
const (
	Cellular = session.Cellular
	Wireline = session.Wireline
)

// Compression schemes.
const (
	SchemeAdaptive = session.SchemeAdaptive // POI360 (§4.2)
	SchemeConduit  = session.SchemeConduit
	SchemePyramid  = session.SchemePyramid
	SchemeFixed    = session.SchemeFixed
)

// Rate controllers.
const (
	RCGCC  = session.RCGCC  // WebRTC's Google Congestion Control
	RCFBCC = session.RCFBCC // POI360's FBCC (§4.3)
)

// CellProfile describes the simulated radio environment.
type CellProfile = lte.CellProfile

// Cell profiles matching the paper's field-test conditions.
var (
	CellStrongIdle = lte.ProfileStrongIdle // −73 dBm, idle cell
	CellModerate   = lte.ProfileModerate   // −82 dBm, light load
	CellWeak       = lte.ProfileWeak       // −115 dBm parking garage
	CellBusy       = lte.ProfileBusy       // campus at noon
	CellCampus     = lte.ProfileCampus     // §6.1 microbenchmark cell (~2.2 Mbps)
)

// PathProfile describes the wide-area path beyond the access link.
type PathProfile = netsim.PathProfile

// Path profiles.
var (
	PathCellular = netsim.CellularPath
	PathWireline = netsim.WirelinePath
)

// UserProfile parameterizes a simulated viewer's head motion.
type UserProfile = headmotion.Profile

// Users are the five simulated participants (§6: five users, distinct
// content and behaviour).
var Users = headmotion.Users

// UserByName finds a user profile ("calm", "typical", "curious",
// "restless", "scanner").
func UserByName(name string) (UserProfile, error) { return headmotion.UserByName(name) }

// VideoConfig describes the synthetic 4K 360° source.
type VideoConfig = video.Config

// DefaultVideoConfig matches the paper's prototype (12×8 tiles, 30 fps).
func DefaultVideoConfig() VideoConfig { return video.DefaultConfig() }

// RawVideoBitsPerSec is the bitrate of the raw 4K 360° stream the source
// produces before ROI compression (12.65 Mbps, §6.1.1).
const RawVideoBitsPerSec = video.RawBitsPerSec

// Orientation is a viewing direction (yaw/pitch in degrees).
type Orientation = projection.Orientation

// Grid is the tile layout of the equirectangular frame.
type Grid = projection.Grid

// DefaultGrid is the paper's 12×8 tile grid.
var DefaultGrid = projection.DefaultGrid

// MOS is a Mean Opinion Score band (Table 1).
type MOS = metrics.MOS

// MOS bands.
const (
	MOSBad       = metrics.Bad
	MOSPoor      = metrics.Poor
	MOSFair      = metrics.Fair
	MOSGood      = metrics.Good
	MOSExcellent = metrics.Excellent
)

// MOSForPSNR maps PSNR (dB) to its MOS band per Table 1.
func MOSForPSNR(psnr float64) MOS { return metrics.MOSForPSNR(psnr) }

// ExperimentOptions scale an experiment run (quick vs full, seeds, session
// length, progress output) and bound its parallelism: Workers sets how
// many sessions of a batch run concurrently (0 = GOMAXPROCS, 1 =
// sequential). For a fixed Seed every Workers value produces byte-identical
// reports; results are folded in deterministic (user, repeat) order.
type ExperimentOptions = experiments.Options

// ExperimentMemo lets the experiments of one run share the campus-grid
// batches several of them compare (ExperimentOptions.Memo): a batch is run
// once per scale and recalled after, which changes no report.
type ExperimentMemo = experiments.Memo

// NewExperimentMemo builds an empty batch memo.
func NewExperimentMemo() *ExperimentMemo { return experiments.NewMemo() }

// DeriveSeed maps a base seed and a non-negative (lane, step) coordinate
// to a collision-free per-session seed (SplitMix64 finalizer). The
// experiment engine seeds grid cell (user, repeat) of a batch with
// DeriveSeed(Seed, user, repeat); external drivers that fan out their own
// session grids should derive seeds the same way.
func DeriveSeed(base int64, lane, step int) int64 { return session.DeriveSeed(base, lane, step) }

// FaultScript is a deterministic disturbance timeline for a session
// (SessionConfig.Faults): scripted diag stalls, reverse-feedback
// drop/duplicate/delay windows, handover-style outages, capacity steps, and
// ROI-belief freezes. The zero value injects nothing.
type FaultScript = faults.Script

// FaultEvent is one disturbance window of a FaultScript.
type FaultEvent = faults.Event

// Fault kinds for hand-built scripts.
const (
	FaultDiagStall     = faults.DiagStall
	FaultFeedbackDrop  = faults.FeedbackDrop
	FaultFeedbackDup   = faults.FeedbackDup
	FaultFeedbackDelay = faults.FeedbackDelay
	FaultOutage        = faults.Outage
	FaultCapacityStep  = faults.CapacityStep
	FaultROIFreeze     = faults.ROIFreeze
)

// FaultScenarios lists the canned disturbance scenarios ("diag-stall",
// "feedback-loss", "feedback-storm", "handover", "capacity-step",
// "roi-freeze", "storm").
func FaultScenarios() []string { return faults.ScenarioNames() }

// MakeFaultScenario materializes a named scenario over a session of the
// given duration. The same (name, duration) pair always yields the same
// timeline.
func MakeFaultScenario(name string, duration time.Duration) (FaultScript, error) {
	return faults.MakeScenario(name, duration)
}

// Experiment regenerates one of the paper's tables or figures.
type Experiment = experiments.Experiment

// Report is an experiment's output: printable tables, raw curves, and the
// headline numbers.
type Report = experiments.Report

// Table is a printable result grid.
type Table = trace.Table

// Series is a raw experiment curve (CDF, scatter, sweep).
type Series = trace.Series

// Experiments lists every reproduction experiment in paper order.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment runs the experiment with the given ID ("fig5" … "fig17ef",
// "table1", "abl-…").
func RunExperiment(id string, opts ExperimentOptions) (*Report, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(opts)
}

// TelemetryBus is a deterministic, zero-overhead-when-disabled event bus:
// attach one to SessionConfig.Obs (via Probe) or MultiSessionConfig.Obs and
// every layer of the simulation — session, rate control, LTE scheduler,
// network path, fault scripts — emits typed sim-clock-stamped events onto
// it. Probes only observe; instrumenting a session cannot change its
// trajectory (see internal/obs for the contract).
type TelemetryBus = obs.Bus

// TelemetryEvent is one typed, sim-clock-stamped record on a TelemetryBus.
type TelemetryEvent = obs.Event

// TelemetryProbe is a session-facing handle onto a TelemetryBus; the nil
// probe is valid and makes every emission a no-op.
type TelemetryProbe = obs.Probe

// TelemetryKind enumerates the event taxonomy ("frame.encode",
// "fbcc.trigger", "lte.grant", …); see internal/obs for the full table.
type TelemetryKind = obs.Kind

// NewTelemetryBus builds a bus that records every event kind.
func NewTelemetryBus() *TelemetryBus { return obs.NewBus() }

// TelemetryKindByName resolves an event name ("fbcc.trigger") to its Kind.
func TelemetryKindByName(name string) (TelemetryKind, bool) { return obs.KindByName(name) }

// CongestionEpisode is one reconstructed FBCC congestion episode: Eq. 3
// trigger through Rphy pin and 2-RTT hold to release (§4.3, Eqs. 3–6).
type CongestionEpisode = obs.Episode

// CongestionEpisodeStats summarizes a set of episodes.
type CongestionEpisodeStats = obs.EpisodeStats

// CongestionEpisodes reconstructs FBCC congestion episodes from a bus's
// event stream.
func CongestionEpisodes(events []TelemetryEvent) []CongestionEpisode {
	return obs.Episodes(events)
}

// SummarizeCongestionEpisodes aggregates episode count, durations, hold
// times and recovery gaps.
func SummarizeCongestionEpisodes(eps []CongestionEpisode) CongestionEpisodeStats {
	return obs.SummarizeEpisodes(eps)
}

// TelemetryAgg collects per-batch congestion-episode statistics across a
// whole experiment run (ExperimentOptions.Obs); Table renders the
// experiment-level episode table.
type TelemetryAgg = obs.ExperimentAgg

// NewTelemetryAgg builds an empty experiment-level episode aggregator.
func NewTelemetryAgg() *TelemetryAgg { return obs.NewExperimentAgg() }

// TelemetryBinWriter owns one binary (.pbt) telemetry stream: it writes
// the stream header before the first payload, coalesces flushes into one
// Write per Sync (FinishSpill and every city epoch barrier sync), counts
// bytes written and bytes a failed writer dropped, and latches the first
// write error. Point a bus at it with
// TelemetryBus.SpillTo(w, shard, autoFlush) — events then stream to
// the writer instead of accumulating in memory — or hand it to
// CityConfig.Sink to stream a whole city's radio telemetry.
type TelemetryBinWriter = obs.BinWriter

// NewTelemetryBinWriter wraps w as a binary telemetry sink.
func NewTelemetryBinWriter(w io.Writer) *TelemetryBinWriter { return obs.NewBinWriter(w) }

// TelemetryShardAgg merges counters, histograms, gauges and FBCC episode
// statistics across per-shard buses as they stream — no event retention —
// in a deterministic order (ascending shard id, emission order within a
// shard), so the merged registry is byte-identical at any worker count.
// CityConfig.Agg accepts one; Bind attaches further buses by shard id.
type TelemetryShardAgg = obs.ShardAgg

// NewTelemetryShardAgg builds an empty streaming shard aggregate.
func NewTelemetryShardAgg() *TelemetryShardAgg { return obs.NewShardAgg() }

// TelemetryReplayer incrementally decodes a binary telemetry stream into
// a TelemetryShardAgg (and an optional OnEvent callback), tolerating
// arbitrary read boundaries — the engine behind poi360-trace, whole-file
// and -live.
type TelemetryReplayer = obs.Replayer

// NewTelemetryReplayer creates a replayer feeding agg (nil when only the
// OnEvent callback matters).
func NewTelemetryReplayer(agg *TelemetryShardAgg) *TelemetryReplayer { return obs.NewReplayer(agg) }

// ReadTelemetryBinary replays a complete binary telemetry stream from r
// into agg (and onEvent, when non-nil), returning the number of data
// records decoded.
func ReadTelemetryBinary(r io.Reader, agg *TelemetryShardAgg, onEvent func(shard int32, e *TelemetryEvent)) (int64, error) {
	return obs.ReadBinary(r, agg, onEvent)
}

// AppendTelemetryEventJSON appends one event's JSONL object (no trailing
// newline) to buf: the text rendering of a decoded binary event.
func AppendTelemetryEventJSON(buf []byte, e *TelemetryEvent) []byte {
	return obs.AppendEventJSON(buf, e)
}

// Version identifies this reproduction.
const Version = "1.0.0"

// Summary formats the headline metrics of a session result in one line.
func Summary(res *SessionResult) string {
	return fmt.Sprintf("%s/%s over %s: %d frames, PSNR %.1f dB, median delay %.0f ms, freeze %.2f%%, throughput %.2f Mbps",
		res.Config.Scheme, res.Config.RC, res.Config.Network,
		res.FramesDelivered,
		res.PSNRSummary().Mean,
		res.DelaySummary().Median,
		100*res.FreezeRatio(),
		res.ThroughputSummary().Mean/1e6)
}
