// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each experiment runs the same workloads the paper uses —
// multi-user telephony sessions over the simulated LTE uplink or the
// wireline baseline — and prints the rows/series the corresponding figure
// reports, together with the paper's own numbers for comparison.
//
// Absolute values are not expected to match (the substrate is a calibrated
// simulator, not the authors' testbed); the shapes — who wins, by roughly
// what factor, where the crossovers fall — are the reproduction target and
// are recorded per experiment in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"poi360/internal/lte"
	"poi360/internal/metrics"
	"poi360/internal/obs"
	"poi360/internal/session"
	"poi360/internal/trace"
)

// Options control experiment scale.
type Options struct {
	// Quick shrinks sessions so the whole suite runs in seconds (used by
	// unit tests and -short benches). Full scale mimics the paper's 5-user
	// × repeated-session methodology.
	Quick bool
	// Seed offsets every session seed, for repeat-run variance studies.
	Seed int64
	// SessionTime overrides the per-session duration (0 = scale default).
	SessionTime time.Duration
	// Users overrides how many of the 5 user profiles run (0 = default).
	Users int
	// Repeats overrides per-user session repetitions (0 = default).
	Repeats int
	// Progress, when non-nil, receives one line per completed work item (a
	// session, a shared-cell scenario or a city run), in grid order
	// whatever the number of workers.
	Progress io.Writer
	// Workers bounds how many work items of an experiment run at once: 0
	// means GOMAXPROCS, 1 runs them on the calling goroutine. For a fixed
	// Seed every value produces byte-identical output (see runGrid).
	Workers int
	// Obs, when non-nil, collects one congestion-episode row per FBCC batch
	// an experiment uses. It is a side channel: each FBCC session streams
	// into a private retention-free bus and nothing reaches Report, so
	// enabling Obs cannot change a byte of experiment output (probes
	// observe, never steer; see internal/obs).
	Obs *obs.ExperimentAgg
	// Memo, when non-nil, shares campus-grid batches between the
	// experiments run with it: a batch already run under the same scale
	// options is recalled instead of run again. Recall cannot change a
	// report, only its wall time; nil runs every batch.
	Memo *Memo
}

func (o Options) sessionTime() time.Duration {
	if o.SessionTime > 0 {
		return o.SessionTime
	}
	if o.Quick {
		return 60 * time.Second
	}
	return 150 * time.Second
}

func (o Options) users() int {
	if o.Users > 0 {
		return min(o.Users, 5)
	}
	if o.Quick {
		return 2
	}
	return 5
}

func (o Options) repeats() int {
	if o.Repeats > 0 {
		return o.Repeats
	}
	if o.Quick {
		return 1
	}
	return 2
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// batchWarmup is the stats warm-up shared by every batch (and shared-cell
// scenario): long enough to skip the rate controller's start-up ramp and
// the backlog it leaves, so experiments measure steady state like the
// paper's 5-minute sessions.
const batchWarmup = 15 * time.Second

// progressMu serializes all progress writes so concurrent batches (or a
// batch and a caller sharing the same writer) never interleave bytes.
var progressMu sync.Mutex

// Report is the outcome of one experiment.
type Report struct {
	Tables []*trace.Table
	Series []trace.Series
	// Measured exposes the headline numbers for tests and EXPERIMENTS.md.
	Measured map[string]float64
}

func newReport() *Report { return &Report{Measured: map[string]float64{}} }

// Experiment regenerates one table or figure.
type Experiment struct {
	ID    string
	Title string
	// Paper summarizes what the original figure shows, for side-by-side
	// comparison in the printed output.
	Paper string
	Run   func(Options) (*Report, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		Fig05, Fig06, Table1,
		Fig11, Fig12, Fig13, Fig14,
		Fig15, Fig16a, Fig16b,
		Fig17ab, Fig17cd, Fig17ef,
		AblationNoModeSwitch, AblationFBCCK, AblationNoRTPLoop, AblationHold,
		FaultsTable,
		MultiUser, Network,
		ExtPrediction, ExtEdgeRelay,
	}
}

// ByID finds an experiment by its identifier.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// sessionAgg aggregates the per-frame metrics of a batch of sessions.
type sessionAgg struct {
	PSNRs      []float64
	DelaysMs   []float64
	Stab       []float64 // per-frame 2 s-window std of ROI level
	Throughput []float64 // per-second received bits/s
	Mismatch   []float64 // seconds
	Freezes    float64   // weighted freeze ratio
	frames     int
	Diag       []session.DiagSample
	Sessions   int
	Overuses   int
	// Degradation accounting (fault-injection runs).
	Degradations  int   // FBCC diag-staleness watchdog firings
	StaleFeedback int   // feedback messages discarded by the staleness guard
	DiagStalled   int64 // diag reports suppressed by the fault script
	// episodes are the FBCC congestion episodes of an Options.Obs run, in
	// grid order.
	episodes []obs.Episode
}

func (a *sessionAgg) fold(res *session.Result) {
	a.PSNRs = append(a.PSNRs, res.ROIPSNRs...)
	for _, d := range res.FrameDelays {
		a.DelaysMs = append(a.DelaysMs, float64(d)/float64(time.Millisecond))
	}
	a.Stab = append(a.Stab, res.LevelStability()...)
	a.Throughput = append(a.Throughput, res.Throughput...)
	for _, m := range res.Mismatch {
		a.Mismatch = append(a.Mismatch, m.V)
	}
	n := len(res.FrameDelays) + res.FramesLost
	a.Freezes += res.FreezeRatio() * float64(n)
	a.frames += n
	a.Diag = append(a.Diag, res.Diag...)
	a.Sessions++
	a.Overuses += res.FBCCOveruses
	a.Degradations += res.FBCCDegradations
	a.StaleFeedback += res.StaleFeedback
	a.DiagStalled += res.DiagStalled
}

// FreezeRatio is the frame-weighted freeze ratio across sessions.
func (a *sessionAgg) FreezeRatio() float64 {
	if a.frames == 0 {
		return 0
	}
	return a.Freezes / float64(a.frames)
}

// PSNR summarizes ROI PSNR across all sessions.
func (a *sessionAgg) PSNR() metrics.Summary { return metrics.Summarize(a.PSNRs) }

// MOSPDF is the MOS distribution across all sessions.
func (a *sessionAgg) MOSPDF() [5]float64 { return metrics.MOSPDF(a.PSNRs) }

// Delay summarizes frame delays in ms.
func (a *sessionAgg) Delay() metrics.Summary { return metrics.Summarize(a.DelaysMs) }

// Stability summarizes the Fig. 12 window-std metric.
func (a *sessionAgg) Stability() metrics.Summary { return metrics.Summarize(a.Stab) }

// BufferKB is the firmware-buffer level of every diag sample, in KB.
func (a *sessionAgg) BufferKB() []float64 {
	kb := make([]float64, len(a.Diag))
	for i, d := range a.Diag {
		kb[i] = float64(d.BufferBytes) / 1024
	}
	return kb
}

// MeanMismatch is the mean ROI mismatch M in seconds, summed in sample
// order (metrics.Summarize may sum in another order and round differently).
func (a *sessionAgg) MeanMismatch() float64 {
	if len(a.Mismatch) == 0 {
		return 0
	}
	var sum float64
	for _, m := range a.Mismatch {
		sum += m
	}
	return sum / float64(len(a.Mismatch))
}

// progressBuffer reorders per-item progress lines: workers complete in
// arbitrary order, but lines reach the writer in grid index order, each
// flushed as soon as its contiguous prefix is complete (so a -v run stays
// live under parallel workers instead of dumping everything at the end).
type progressBuffer struct {
	w       io.Writer
	mu      sync.Mutex
	next    int
	pending map[int]string
}

func newProgressBuffer(w io.Writer) *progressBuffer {
	return &progressBuffer{w: w, pending: map[int]string{}}
}

// emit hands line i to the buffer; it is safe for concurrent use.
func (p *progressBuffer) emit(i int, line string) {
	if p == nil || p.w == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pending[i] = line
	for {
		l, ok := p.pending[p.next]
		if !ok {
			return
		}
		progressMu.Lock()
		io.WriteString(p.w, l)
		progressMu.Unlock()
		delete(p.pending, p.next)
		p.next++
	}
}

// batchLabel names a batch for the experiment-level episode table: the
// scheme/controller/network triple plus whatever distinguishes the cell and
// script from the defaults.
func batchLabel(base session.Config) string {
	l := fmt.Sprintf("%s/%s/%s", base.Scheme, base.RC, base.Network)
	if base.Network == session.Cellular && base.Cell != (lte.CellProfile{}) {
		l += fmt.Sprintf(" rss=%g load=%g", base.Cell.RSSdBm, base.Cell.BackgroundLoad)
		if base.Cell.SpeedMph > 0 {
			l += fmt.Sprintf(" mph=%g", base.Cell.SpeedMph)
		}
	}
	if !base.Faults.Empty() {
		l += " +faults"
	}
	if base.FBCCWatchdogReports < 0 {
		l += " -wd"
	}
	return l
}

// runGrid runs rows × per independent work items on one bounded pool and
// returns their results in grid order: item i = row·per + k is run(row, k)
// and lands in slot i. It is the one engine every experiment runs on:
//
//   - min(o.workers(), rows·per) goroutines claim items from a shared
//     cursor; the calling goroutine is one of them, so Workers 1 starts
//     none. run must write only state addressed by its own item.
//   - Results come back in grid order whatever the completion order, so
//     for a fixed Options.Seed anything folded from them is byte-identical
//     at any worker count.
//   - With Options.Progress set, line(row, k, r) renders item i's progress
//     line; lines flush in grid order (a failed item contributes "", so
//     the ordered flush moves past it).
//   - After a failure no further item is handed out, and the error
//     returned is that of the lowest failing index — the one a sequential
//     run would have reported.
func runGrid[R any](o Options, rows, per int, run func(row, k int) (R, error), line func(row, k int, r R) string) ([]R, error) {
	total := rows * per
	out := make([]R, total)
	errs := make([]error, total)
	var (
		progress *progressBuffer
		cursor   atomic.Int64
		aborted  atomic.Bool
		wg       sync.WaitGroup
	)
	if o.Progress != nil {
		progress = newProgressBuffer(o.Progress)
	}
	work := func() {
		for {
			i := int(cursor.Add(1) - 1)
			if i >= total || aborted.Load() {
				return
			}
			r, err := run(i/per, i%per)
			if err != nil {
				errs[i] = err
				aborted.Store(true)
				progress.emit(i, "")
				return
			}
			out[i] = r
			if progress != nil {
				progress.emit(i, line(i/per, i%per, r))
			}
		}
	}
	for w := 1; w < min(o.workers(), total); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// record adds agg's episode row to Options.Obs if base is an FBCC batch.
func (o Options) record(base session.Config, agg *sessionAgg) {
	if o.Obs != nil && base.RC == session.RCFBCC {
		o.Obs.AddBatch(batchLabel(base), o.users()*o.repeats(), agg.episodes)
	}
}

// runBatchGrid runs several batches' users × repeats session grids as one
// runGrid, so one pool keeps every core busy across batch boundaries and
// the only ramp-down is at the end. Item (b, j) is user u = j/repeats,
// repeat r = j%repeats of batch b, seeded session.DeriveSeed(o.Seed, u, r):
// the seed a lone batch would use. Aggregates come back in input order.
func runBatchGrid(o Options, bases []session.Config) ([]*sessionAgg, error) {
	repeats := o.repeats()
	per := o.users() * repeats
	// One streaming episode aggregate per batch: every instrumented
	// session binds a private retention-free bus under its within-batch
	// grid index, so episodes accumulate as they are emitted and
	// concatenate in grid order — at any worker count, without holding a
	// single event.
	var epAggs []*obs.ShardAgg
	if o.Obs != nil {
		epAggs = make([]*obs.ShardAgg, len(bases))
		for b := range epAggs {
			epAggs[b] = obs.NewShardAgg()
		}
	}
	results, err := runGrid(o, len(bases), per, func(b, j int) (*session.Result, error) {
		u, r := j/repeats, j%repeats
		cfg := bases[b]
		cfg.Duration, cfg.StatsWarmup = o.sessionTime(), batchWarmup
		cfg.User = userProfile(u)
		cfg.Seed = session.DeriveSeed(o.Seed, u, r)
		if o.Obs != nil && cfg.RC == session.RCFBCC {
			bus := obs.NewBus()
			bus.DisableRetention()
			epAggs[b].Bind(int32(j), bus)
			cfg.Obs = bus.Probe(int32(j))
		}
		res, err := session.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("session (user=%d, repeat=%d): %w", u, r, err)
		}
		return res, nil
	}, func(b, j int, res *session.Result) string {
		return fmt.Sprintf("  %s/%s user=%s rep=%d: PSNR %.1f dB, FR %.2f%%\n",
			bases[b].Scheme, bases[b].Network, userProfile(j/repeats).Name, j%repeats,
			res.PSNRSummary().Mean, 100*res.FreezeRatio())
	})
	if err != nil {
		return nil, err
	}
	aggs := make([]*sessionAgg, len(bases))
	for b := range bases {
		aggs[b] = &sessionAgg{}
		for _, res := range results[b*per : (b+1)*per] {
			aggs[b].fold(res)
		}
		if epAggs != nil && bases[b].RC == session.RCFBCC {
			aggs[b].episodes = epAggs[b].Episodes()
		}
	}
	return aggs, nil
}

// runBatches is runBatchGrid that records every FBCC batch's episodes in
// Options.Obs, in input order.
func runBatches(o Options, bases []session.Config) ([]*sessionAgg, error) {
	aggs, err := runBatchGrid(o, bases)
	for b, agg := range aggs {
		o.record(bases[b], agg)
	}
	return aggs, err
}

// campus is the adaptive-compression session on the campus cell under rc:
// the base every single-knob study varies one field of.
func campus(rc session.RCKind) session.Config {
	return session.Config{Network: session.Cellular, Cell: lte.ProfileCampus, Scheme: session.SchemeAdaptive, RC: rc}
}

// gridBatch names one batch of the campus-cell comparison grid the paper's
// figures share (§6.1): everything else about its sessions is the default.
type gridBatch struct {
	scheme  session.SchemeKind
	network session.NetworkKind
	rc      session.RCKind
}

// batchKey identifies a memoized batch: the grid cell plus the options
// that scale it, and whether its episodes were collected. It deliberately
// excludes Options.Workers: worker count never changes a batch's outcome
// (see runGrid), so memoized results are valid across parallelism
// settings.
type batchKey struct {
	gridBatch
	quick   bool
	seed    int64
	dur     time.Duration
	users   int
	repeats int
	obs     bool
}

// Memo holds the grid batches the experiments of one run have run (see
// Options.Memo), for several goroutines at once. Entries are treated as
// immutable after insertion.
type Memo struct {
	mu      sync.Mutex
	batches map[batchKey]*sessionAgg
}

// NewMemo returns an empty memo.
func NewMemo() *Memo { return &Memo{batches: map[batchKey]*sessionAgg{}} }

// recall returns the batch remembered under k: nil if there is none, or no
// memo.
func (m *Memo) recall(k batchKey) *sessionAgg {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.batches[k]
}

// remember stores a batch under k, if there is a memo.
func (m *Memo) remember(k batchKey, agg *sessionAgg) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.batches[k] = agg
	m.mu.Unlock()
}

// memoBatches is runBatches behind Options.Memo: batches already run under
// the same scale options are recalled, the rest run through one shared
// worker pool and are remembered. Every FBCC spec records its episode row
// in Options.Obs, in specs order, whether it ran now or was recalled, and
// aggregates come back in specs order.
func memoBatches(o Options, specs []gridBatch) ([]*sessionAgg, error) {
	keys := make([]batchKey, len(specs))
	bases := make([]session.Config, len(specs))
	aggs := make([]*sessionAgg, len(specs))
	var (
		todo    []int
		pending []session.Config
	)
	for i, sp := range specs {
		keys[i] = batchKey{sp, o.Quick, o.Seed, o.sessionTime(), o.users(), o.repeats(), o.Obs != nil}
		bases[i] = campus(sp.rc)
		bases[i].Network, bases[i].Scheme = sp.network, sp.scheme
		if aggs[i] = o.Memo.recall(keys[i]); aggs[i] == nil {
			todo = append(todo, i)
			pending = append(pending, bases[i])
		}
	}
	ran, err := runBatchGrid(o, pending)
	if err != nil {
		return nil, err
	}
	for j, i := range todo {
		aggs[i] = ran[j]
		o.Memo.remember(keys[i], ran[j])
	}
	for i, agg := range aggs {
		o.record(bases[i], agg)
	}
	return aggs, nil
}

// cdfSeries converts samples into an empirical CDF curve, downsampled to
// every step-th point plus the final (max, 1) point — at most 201 points.
func cdfSeries(name string, samples []float64) trace.Series {
	s := trace.Series{Name: name}
	pts := metrics.CDF(samples)
	if len(pts) == 0 {
		return s
	}
	step := len(pts)/200 + 1
	for i := 0; i < len(pts); i += step {
		s.Append(pts[i].X, pts[i].P)
	}
	if last := len(pts) - 1; last%step != 0 {
		s.Append(pts[last].X, pts[last].P)
	}
	return s
}

func mosRow(pdf [5]float64) []string {
	out := make([]string, 5)
	for i, p := range pdf {
		out[i] = trace.Pct(p)
	}
	return out
}
