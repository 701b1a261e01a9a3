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
	// Progress, when non-nil, receives one line per completed session.
	// Lines are emitted in deterministic (user, repeat) order regardless
	// of how many workers run the batch.
	Progress io.Writer
	// Workers bounds how many sessions of a batch run concurrently.
	// 0 means GOMAXPROCS; 1 forces the sequential path. For a fixed Seed
	// every Workers value produces byte-identical experiment output —
	// sessions are independent simulations and results are folded back in
	// (user, repeat) order.
	Workers int
	// Obs, when non-nil, collects per-batch FBCC congestion-episode
	// statistics across every batch an experiment runs. Instrumentation is
	// a side channel: each FBCC session gets a private retention-free bus
	// whose episode tracker streams into the batch aggregate, and nothing
	// reaches Report — so enabling Obs
	// cannot change a single byte of experiment output (probes observe,
	// never steer; see internal/obs).
	Obs *obs.ExperimentAgg
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
		if o.Users > 5 {
			return 5
		}
		return o.Users
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

// progressBuffer reorders per-session progress lines: workers complete in
// arbitrary order, but lines reach the writer in batch index order, each
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

// runBatches runs several batches' session grids through ONE bounded worker
// pool and returns the per-batch aggregates in input order. Flattening an
// experiment's batches into a single work list keeps every core busy across
// batch boundaries: with B sequential single-batch pools, each batch's last
// stragglers leave workers idle B times; with one pool the only ramp-down is
// at the very end of the experiment.
//
// The engine guarantees are unchanged from the single-batch pool:
//
//   - Work item i = (batch b, user u, repeat r) with i = (b·users+u)·repeats+r.
//     Each item is an independent discrete-event simulation whose randomness
//     derives only from its collision-free per-session seed — the same
//     session.DeriveSeed(o.Seed, u, r) per batch as sequential single-batch
//     calls would use.
//   - Results fold back strictly in (batch, user, repeat) order, so for a
//     fixed Options.Seed the aggregates — and every table, CDF, and report
//     built from them — are byte-identical no matter how many workers ran.
//   - Progress lines flush in flattened-index order, which is exactly the
//     order B sequential batches would have printed.
//   - Errors surface from the lowest flattened index, matching what the
//     sequential path would have reported first.
//   - Options.Obs episode batches are recorded per batch, in batch order,
//     after the pool drains.
func runBatches(o Options, bases []session.Config) ([]*sessionAgg, error) {
	if len(bases) == 0 {
		return nil, nil
	}
	users, repeats := o.users(), o.repeats()
	per := users * repeats
	total := len(bases) * per
	prepared := make([]session.Config, len(bases))
	for b, base := range bases {
		base.Duration = o.sessionTime()
		// Skip the rate controller's start-up ramp (and the backlog it
		// leaves) so batches measure steady state, like the paper's
		// 5-minute sessions.
		base.StatsWarmup = batchWarmup
		prepared[b] = base
	}
	results := make([]*session.Result, total)
	var progress *progressBuffer
	if o.Progress != nil {
		progress = newProgressBuffer(o.Progress)
	}
	// One streaming episode aggregate per batch: every instrumented
	// session binds a retention-free bus under its within-batch grid
	// index, so episodes accumulate as they are emitted and concatenate
	// in grid order at the fold — byte-identical to the retained-stream
	// engine at any worker count, without holding a single event.
	var epAggs []*obs.ShardAgg
	if o.Obs != nil {
		epAggs = make([]*obs.ShardAgg, len(bases))
		for b := range epAggs {
			epAggs[b] = obs.NewShardAgg()
		}
	}

	// runOne executes flattened cell i into its slot.
	runOne := func(i int) error {
		b, j := i/per, i%per
		u, r := j/repeats, j%repeats
		cfg := prepared[b]
		cfg.User = userProfile(u)
		cfg.Seed = session.DeriveSeed(o.Seed, u, r)
		if o.Obs != nil && cfg.RC == session.RCFBCC {
			// Private per-session bus (no cross-worker sharing), streaming
			// into the batch's episode aggregate under the within-batch
			// grid index — same probe id as single-batch runs, zero event
			// retention.
			bus := obs.NewBus()
			bus.DisableRetention()
			epAggs[b].Bind(int32(j), bus)
			cfg.Obs = bus.Probe(int32(j))
		}
		res, err := session.Run(cfg)
		if err != nil {
			progress.emit(i, "") // keep the ordered flush moving past the failed slot
			return fmt.Errorf("session (user=%d, repeat=%d): %w", u, r, err)
		}
		results[i] = res
		if progress != nil {
			progress.emit(i, fmt.Sprintf("  %s/%s user=%s rep=%d: PSNR %.1f dB, FR %.2f%%\n",
				cfg.Scheme, cfg.Network, cfg.User.Name, r,
				res.PSNRSummary().Mean, 100*res.FreezeRatio()))
		}
		return nil
	}

	if err := fanOut(o.workers(), total, runOne); err != nil {
		return nil, err
	}
	// Deterministic fold: flattened order regardless of completion order.
	aggs := make([]*sessionAgg, len(bases))
	for b := range bases {
		agg := &sessionAgg{}
		for j := 0; j < per; j++ {
			agg.fold(results[b*per+j])
		}
		aggs[b] = agg
		if o.Obs != nil && prepared[b].RC == session.RCFBCC {
			// ShardAgg.Episodes concatenates in ascending shard id — the
			// within-batch grid index — so the experiment-level table is
			// byte-identical at any worker count, exactly as the old
			// retained-stream fold was.
			o.Obs.AddBatch(batchLabel(prepared[b]), per, epAggs[b].Episodes())
		}
	}
	return aggs, nil
}

// gridBatch names one batch of the campus-cell comparison grid the paper's
// figures share (§6.1): everything else about its sessions is the default.
type gridBatch struct {
	scheme  session.SchemeKind
	network session.NetworkKind
	rc      session.RCKind
}

// batchKey identifies a memoized batch: the grid cell plus the options
// that scale it. It deliberately excludes Options.Workers: worker count
// never changes a batch's aggregate (see runBatches), so memoized results
// are valid across parallelism settings.
type batchKey struct {
	gridBatch
	quick   bool
	seed    int64
	dur     time.Duration
	users   int
	repeats int
}

// batchMemo holds every grid batch run so far in this process. Aggregates
// are treated as immutable after insertion.
var (
	batchMu   sync.Mutex
	batchMemo = map[batchKey]*sessionAgg{}
)

// memoBatches is runBatches behind the memo: batches already run under
// the same scale options are recalled, the rest run through one shared
// worker pool and are remembered. Aggregates come back in specs order.
func memoBatches(o Options, specs []gridBatch) ([]*sessionAgg, error) {
	keys := make([]batchKey, len(specs))
	aggs := make([]*sessionAgg, len(specs))
	var (
		todo  []int
		bases []session.Config
	)
	batchMu.Lock()
	for i, sp := range specs {
		keys[i] = batchKey{sp, o.Quick, o.Seed, o.sessionTime(), o.users(), o.repeats()}
		if aggs[i] = batchMemo[keys[i]]; aggs[i] == nil {
			todo = append(todo, i)
			bases = append(bases, session.Config{
				Network: sp.network,
				Cell:    lte.ProfileCampus,
				Scheme:  sp.scheme,
				RC:      sp.rc,
			})
		}
	}
	batchMu.Unlock()
	ran, err := runBatches(o, bases)
	if err != nil {
		return nil, err
	}
	batchMu.Lock()
	for j, i := range todo {
		aggs[i] = ran[j]
		batchMemo[keys[i]] = ran[j]
	}
	batchMu.Unlock()
	return aggs, nil
}

// fanOut calls fn(i) for every i in [0, total) on min(workers, total)
// goroutines that claim indices from a shared cursor; with one worker it is
// a plain loop that stops at the first error. fn must write only state
// addressed by i. After a failure no further index is handed out, and the
// error returned is that of the lowest failing index — the one a sequential
// run would have reported.
func fanOut(workers, total int, fn func(i int) error) error {
	if workers = min(workers, total); workers <= 1 {
		for i := 0; i < total; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		errs    = make([]error, total)
		cursor  atomic.Int64
		aborted atomic.Bool
		wg      sync.WaitGroup
	)
	cursor.Store(-1)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1))
				if i >= total || aborted.Load() {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					aborted.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
