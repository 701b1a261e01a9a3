// Command benchmark is the one benchmark every performance or simplicity
// claim on this repository is measured with: seven named workloads, a small
// set of end-to-end metrics with regression bounds, and a seam-traced run
// that gives per-layer numbers. See README.md in this directory.
//
//	benchmark/run.sh -workload <name|all> -seed <n> [-seconds <s>] [-trace 1]
//	benchmark/run.sh -workload <name|all> -repeat 5
//	benchmark/run.sh -check
//
// It drives the stack only through public functions of the internal
// packages, as a closed loop with one client: each rep is one complete
// deterministic simulation batch of fixed size, and the next rep starts when
// the previous returns. Each workload is measured in its own process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"poi360/internal/metrics"
)

// processStart anchors setup_s. Package variables initialise before main,
// so this is as close to process start as Go code gets.
var processStart = time.Now()

const (
	// setupSamples is how many fresh processes set-up is timed in; setup_s is
	// their median.
	setupSamples = 5
	// minReps is the fewest timed reps a measurement accepts, however short
	// -seconds is.
	minReps = 3
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	traceOut  string
	repeat    int
	check     bool
	setupOnly bool
}

// traceFile is where a traced run writes its spans: inside the checkout,
// under the ignored build directory, unless -trace-out says otherwise.
func (o options) traceFile(name string) string {
	if o.traceOut != "" {
		return o.traceOut
	}
	return filepath.Join(".bench_build", "trace", name+".jsonl")
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "every input derives from this seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the timed reps run for (whole reps; at least 3)")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics, spans written to -trace-out")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace/<workload>.jsonl)")
	fs.IntVar(&o.repeat, "repeat", 0, "run the measurement N times in fresh processes and print each end-to-end metric's spread against its bound")
	fs.BoolVar(&o.check, "check", false, "quick self-test: every workload, invariant, layer driver and the trace writer")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: set up the workload, print the set-up time, exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (o.trace != 0 && o.trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: usage: -workload <name|all> -seed <n> [-seconds <s>] [-trace 0|1] | -repeat N | -check")
		return 2
	}
	// The whole benchmark, city-par included, works on at most min(nproc, 4)
	// threads.
	runtime.GOMAXPROCS(parWorkers())

	if o.check {
		return runCheck(o, stdout, stderr)
	}
	var names []string
	if o.workload == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := workloadByName(o.workload); ok {
		names = []string{o.workload}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q; the workloads are:\n", o.workload)
		for _, w := range workloads {
			fmt.Fprintf(stderr, "  %-15s %s\n", w.name, w.rep)
		}
		return 2
	}

	switch {
	case o.repeat > 0:
		code := 0
		for _, name := range names {
			if err := runRepeat(o, name, stdout, stderr); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
				code = 1
			}
		}
		return code
	case o.workload == "all":
		// One fresh process per workload: memo caches and setup_s are never
		// shared between workloads.
		code := 0
		for _, name := range names {
			res, out, err := runChild(childArgs(o, name), stderr)
			io.WriteString(stdout, out)
			if err != nil || !res.Correct {
				code = 1
			}
		}
		return code
	}

	w, _ := workloadByName(o.workload)
	if o.setupOnly {
		m, err := setUp(w, o.seed, false)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		line, _ := json.Marshal(setupLine{m.setupS[0]})
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}
	res, err := runWorkload(w, o, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupLine is what a -setup-only child prints.
type setupLine struct {
	SetupS float64 `json:"setup_s"`
}

func childArgs(o options, name string) []string {
	return []string{
		"-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace),
	}
}

// childOutput re-executes this binary in a fresh process, waits for it, and
// returns its standard output with the JSON of its last line decoded into v.
func childOutput(args []string, stderr io.Writer, v any) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return string(out), fmt.Errorf("child %v: %w", args, err)
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), v); err != nil {
		return string(out), fmt.Errorf("child %v: last line %q: %w", args, lines[len(lines)-1], err)
	}
	return string(out), nil
}

// runChild measures one workload in a fresh process.
func runChild(args []string, stderr io.Writer) (result, string, error) {
	var res result
	out, err := childOutput(args, stderr, &res)
	return res, out, err
}

// runWorkload measures one workload in this process.
func runWorkload(w workload, o options, stdout, stderr io.Writer) (*result, error) {
	m, err := setUp(w, o.seed, false)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  %s on %d CPUs (GOMAXPROCS %d)\n  one rep: %s\n  closed loop, 1 client; %.0f simulated seconds per rep\n  hot layers: %s\n  cold layers: %s\n",
		w.name, o.seed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), w.rep, m.first.simSeconds, w.hot, w.cold)

	if o.trace == 1 {
		return runTraced(m, o, o.traceFile(w.name), stdout)
	}

	m.reps, _ = m.timeReps(o.seconds, nil)
	// More set-up samples, each in a process of its own so that nothing this
	// process has already memoised shortens them.
	for len(m.setupS) < setupSamples {
		var sl setupLine
		if _, err := childOutput([]string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10), "-setup-only"}, stderr, &sl); err != nil {
			return nil, err
		}
		m.setupS = append(m.setupS, sl.SetupS)
	}

	values := m.endToEndValues()
	printTable(stdout, "end-to-end (tracing off)", endToEnd, values, map[string]int{
		"sim_s_per_wall_s": len(m.reps), "cpu_s_per_sim_s": len(m.reps), "alloc_mb_per_sim_s": len(m.reps),
		"setup_s": len(m.setupS), "goodput_mbps": m.first.ues,
	})
	m.printRepWall(stdout)
	sim := m.simQuality()
	printTable(stdout, "simulated quality (exact at this seed)", present(perLayer, sim), sim, nil)
	m.printFailures(stdout)
	return m.result(endToEnd, values), nil
}

// measurement is one workload's run in this process.
type measurement struct {
	w     workload
	run   rep
	first *outcome // the warm-up rep: rep 1, the reference every later rep must reproduce

	setupS []float64
	reps   []repSample // the timed, untraced reps

	attempted int
	failures  []string // one entry per failed rep
}

// setUp generates the workload's inputs and runs the untimed warm-up rep,
// which fills the process-wide memo caches (compress.FamilyFor,
// projection.GeomFor, the fovea kernel table) and whose cost is part of
// setup_s.
func setUp(w workload, seed int64, quick bool) (*measurement, error) {
	run, err := w.prepare(seed, quick)
	if err != nil {
		return nil, err
	}
	m := &measurement{w: w, run: run}
	first, err := run(nil)
	m.attempted = 1
	if err != nil {
		return nil, fmt.Errorf("warm-up rep: %w", err)
	}
	m.first = first
	if len(first.violations) > 0 {
		m.failures = append(m.failures, "rep 1: "+strings.Join(first.violations, "; "))
	}
	m.setupS = []float64{time.Since(processStart).Seconds()}
	return m, nil
}

// repSample is the host cost of one rep.
type repSample struct {
	wallMs, cpuS, allocMB float64
}

func wallMs(s repSample) float64  { return s.wallMs }
func cpuS(s repSample) float64    { return s.cpuS }
func allocMB(s repSample) float64 { return s.allocMB }

// medianOf is the median of one host cost over a set of reps.
func medianOf(reps []repSample, cost func(repSample) float64) float64 {
	xs := make([]float64, len(reps))
	for i, s := range reps {
		xs[i] = cost(s)
	}
	return median(xs)
}

// oneRep runs and judges one rep: it fails if the run errors, if an
// invariant breaks, or if its result differs from rep 1's.
func (m *measurement) oneRep(run rep, ref *outcome, tr *tracer) (repSample, *outcome) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	t0 := time.Now()
	out, err := run(tr)
	wall := time.Since(t0)
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&ms1)

	m.attempted++
	switch {
	case err != nil:
		m.failures = append(m.failures, fmt.Sprintf("rep %d: %v", m.attempted, err))
	case len(out.violations) > 0:
		m.failures = append(m.failures, fmt.Sprintf("rep %d: %s", m.attempted, strings.Join(out.violations, "; ")))
	case ref != nil && out.fingerprint != ref.fingerprint:
		m.failures = append(m.failures, fmt.Sprintf("rep %d: result fingerprint %016x differs from rep 1's %016x", m.attempted, out.fingerprint, ref.fingerprint))
	}
	return repSample{
		wallMs:  float64(wall) / float64(time.Millisecond),
		cpuS:    cpu.Seconds(),
		allocMB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6,
	}, out
}

// timeReps runs whole reps until seconds have passed (at least minReps) and
// returns their host costs and the last rep's outcome. Reps are of fixed size
// and every reported number is per rep, so how many fit does not change what
// is measured.
func (m *measurement) timeReps(seconds float64, tr *tracer) (samples []repSample, last *outcome) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; n < minReps || time.Now().Before(deadline); n++ {
		tr.startRep(n + 1)
		s, out := m.oneRep(m.run, m.first, tr)
		samples = append(samples, s)
		if out != nil {
			last = out
		}
	}
	return samples, last
}

func (m *measurement) endToEndValues() map[string]float64 {
	o := m.first
	return map[string]float64{
		"sim_s_per_wall_s":   o.simSeconds / (medianOf(m.reps, wallMs) / 1e3),
		"cpu_s_per_sim_s":    medianOf(m.reps, cpuS) / o.simSeconds,
		"alloc_mb_per_sim_s": medianOf(m.reps, allocMB) / o.simSeconds,
		"setup_s":            median(m.setupS),
		"goodput_mbps":       o.bits / o.ueSeconds / 1e6,
	}
}

// simQuality is the simulated-quality side of the per-layer list: exact at a
// seed, but either undefined on some workloads or too seed-dependent to bound.
func (m *measurement) simQuality() map[string]float64 {
	o := m.first
	v := map[string]float64{
		"frame_delay_ms_mean":           ratio(o.delaySumMs, float64(o.framesDelivered)),
		"freeze_ratio":                  ratio(float64(o.bad[popFBCC]+o.bad[popGCC]), float64(o.total[popFBCC]+o.total[popGCC])),
		"ratecontrol.fbcc.freeze_ratio": ratio(float64(o.bad[popFBCC]), float64(o.total[popFBCC])),
		"ratecontrol.gcc.freeze_ratio":  ratio(float64(o.bad[popGCC]), float64(o.total[popGCC])),
	}
	v["fbcc_freeze_advantage"] = ratio(v["ratecontrol.gcc.freeze_ratio"], v["ratecontrol.fbcc.freeze_ratio"])
	if o.psnrN > 0 {
		v["roi_psnr_db"] = o.psnrSum / float64(o.psnrN)
	}
	if len(o.delaysMs) > 0 {
		sorted := append([]float64(nil), o.delaysMs...)
		sort.Float64s(sorted)
		v["frame_delay_ms_p50"] = metrics.Percentile(sorted, 0.50)
		v["frame_delay_ms_p95"] = metrics.Percentile(sorted, 0.95)
	}
	if len(o.perUEBits) > 0 {
		v["jain_fairness"] = metrics.JainFairness(o.perUEBits)
	}
	return v
}

func (m *measurement) printRepWall(w io.Writer) {
	s := make([]float64, len(m.reps))
	for i, r := range m.reps {
		s[i] = r.wallMs
	}
	sort.Float64s(s)
	fmt.Fprintf(w, "  rep_wall_ms: p25 %.3f  p50 %.3f  p75 %.3f  (n=%d reps; no higher percentile has ten samples beyond it, and the tail of a deterministic rep measures the shared host)\n",
		metrics.Percentile(s, 0.25), metrics.Percentile(s, 0.50), metrics.Percentile(s, 0.75), len(s))
}

func (m *measurement) printFailures(w io.Writer) {
	fmt.Fprintf(w, "  failed_op_share = %g  (%d failed of %d reps attempted)\n",
		ratio(float64(len(m.failures)), float64(m.attempted)), len(m.failures), m.attempted)
	for _, f := range m.failures {
		fmt.Fprintf(w, "    FAILED %s\n", f)
	}
}

func (m *measurement) result(defs []metricDef, values map[string]float64) *result {
	res := &result{
		Correct:   len(m.failures) == 0,
		Attempted: m.attempted,
		Failed:    len(m.failures),
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res
}

// runTraced is the -trace 1 run: a third of -seconds on untraced reps, a
// third on traced reps, the rest is for the companion configurations and the
// layer drivers. It prints every per-layer metric.
func runTraced(m *measurement, o options, traceOut string, stdout io.Writer) (*result, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m.reps, _ = m.timeReps(o.seconds/3, nil)
	runtime.ReadMemStats(&ms1)
	tr := newTracer()
	traced, lastTraced := m.timeReps(o.seconds/3, tr)

	v := m.simQuality()
	first := m.first
	// A traced rep has the same simulated results as rep 1, plus the
	// counters only its counting bus collects.
	counts := first.counts
	if lastTraced != nil {
		counts = lastTraced.counts
	}
	for name, c := range counts {
		if strings.HasSuffix(name, "_per_sim_s") {
			c /= first.simSeconds
		}
		v[name] = c
	}
	// What the workload's own telemetry emits is a property of the untraced
	// configuration, not of the counting bus a traced rep adds.
	v["obs.events_per_sim_s"] = first.counts["obs.events_per_sim_s"] / first.simSeconds
	v["obs.bytes_per_sim_s"] = first.counts["obs.bytes_per_sim_s"] / first.simSeconds
	v["session.frames_per_sim_s"] = float64(first.framesDelivered) / first.simSeconds
	v["session.frame_loss_share"] = ratio(float64(first.framesLost), float64(first.framesSent))

	wall := medianOf(m.reps, wallMs)
	v["rep_wall_ms_p50"] = wall
	v["trace.overhead_ratio"] = medianOf(traced, wallMs) / wall
	v["trace.spans"] = float64(tr.spans())
	m.spanMetrics(tr, v, traced)

	if err := m.companionMetrics(o, v); err != nil {
		return nil, err
	}
	if err := runDrivers(v); err != nil {
		return nil, err
	}
	m.cityEstimates(v)

	v["host.num_cpu"] = float64(runtime.NumCPU())
	v["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	calib := make([]float64, 5)
	for i := range calib {
		calib[i] = float64(calibrate()) / float64(time.Millisecond)
	}
	v["host.calib_ms_p50"] = median(calib)
	v["host.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	v["host.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	runtime.ReadMemStats(&ms1)
	v["host.heap_peak_mb"] = float64(ms1.HeapSys) / 1e6

	if err := tr.writeTo(traceOut); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}

	printTable(stdout, fmt.Sprintf("per-layer (traced run: %d untraced + %d traced reps)", len(m.reps), len(traced)), perLayer, v, nil)
	fmt.Fprintf(stdout, "  spans by layer.op over the traced reps (self time; file: %s)\n", traceOut)
	for _, s := range tr.summaries() {
		fmt.Fprintf(stdout, "    %-32s n=%-9d self %10.3f ms  p50 %7d ns  p99 %8d ns\n", s.Op, s.Count, float64(s.SelfNS)/1e6, s.SelfP50, s.SelfP99)
	}
	m.printFailures(stdout)
	return m.result(perLayer, v), nil
}

// spanMetrics derives the seam (S) metrics from the tracer's aggregates over
// the traced reps.
func (m *measurement) spanMetrics(tr *tracer, v map[string]float64, traced []repSample) {
	simS := m.first.simSeconds * float64(len(traced))
	tracedWallNS := 0.0
	for _, s := range traced {
		tracedWallNS += s.wallMs * 1e6
	}
	var events int64
	for i := range tr.ops {
		if strings.HasSuffix(tr.ops[i].name, ".event") {
			events += tr.ops[i].count
		}
	}
	perOp := func(op string) float64 {
		s := tr.stat(op)
		return ratio(float64(s.selfNS), float64(s.count))
	}
	v["simclock.events_per_sim_s"] = float64(events) / simS
	v["simclock.dispatch_ns_per_event"] = ratio(float64(tr.stat("simclock.dispatch").selfNS), float64(events))
	attach := tr.stat("session.new_attach")
	v["session.new_attach_us"] = ratio(float64(attach.durNS), float64(attach.count)) / 1e3
	v["session.self_ms_per_sim_s"] = float64(tr.selfNSByPrefix("session.")-attach.selfNS) / 1e6 / simS
	v["netsim.access_self_ms_per_sim_s"] = float64(tr.selfNSByPrefix("netsim.access.")) / 1e6 / simS
	v["realnet.send_ns_per_pkt"] = perOp("realnet.send")
	v["realnet.rx_ns_per_pkt"] = perOp("realnet.rx")
	v["realnet.report_ns"] = perOp("realnet.report")
	v["trace.attributed_share"] = float64(tr.selfNSByPrefix("")-tr.stat("harness.call").selfNS) / tracedWallNS
}

// companionMetrics times the configuration a workload is read against: the
// other worker count for city-seq/city-par, telemetry off for city-telemetry.
func (m *measurement) companionMetrics(o options, v map[string]float64) error {
	if m.w.companion == nil {
		return nil
	}
	run, err := m.w.companion(o.seed, false)
	if err != nil {
		return fmt.Errorf("companion configuration: %w", err)
	}
	var reps []repSample
	for i := 0; i < minReps; i++ {
		s, _ := m.oneRep(run, nil, nil)
		reps = append(reps, s)
	}
	own, ownCPU := medianOf(m.reps, wallMs), medianOf(m.reps, cpuS)
	other, otherCPU := medianOf(reps, wallMs), medianOf(reps, cpuS)
	switch m.w.name {
	case "city-seq":
		own, other, ownCPU, otherCPU = other, own, otherCPU, ownCPU
		fallthrough
	case "city-par":
		// own is now the parallel side, other the Workers=1 side.
		v["network.par_speedup"] = other / own
		v["network.par_efficiency"] = other / own / float64(parWorkers())
		v["network.par_cpu_inflation"] = ownCPU / otherCPU
	case "city-telemetry":
		v["obs.overhead_ratio"] = own / other
	}
	return nil
}

// cityEstimates derives the city workloads' per-epoch costs and the two
// labelled estimates from the drivers' numbers.
func (m *measurement) cityEstimates(v map[string]float64) {
	c := m.w.city
	if c.cells == 0 {
		return
	}
	const epochs, subframes = 1000, 10_000 // 10 sim-s at 10 ms epochs, 1 ms subframes
	wallNS := medianOf(m.reps, wallMs) * 1e6
	v["network.ns_per_ue_epoch"] = wallNS / float64(c.ues*epochs)
	v["network.ns_per_cell_epoch"] = wallNS / float64(c.cells*epochs)
	v["network.idle_share_est"] = v["lte.empty_ns_per_subframe"] * m.first.counts["network.empty_cells_est"] * subframes / wallNS
	// The PF estimate needs the 4 UEs per cell its driver has and a rep wall
	// that is one thread's time.
	if c.ues >= 4*c.cells && !c.parallel {
		v["network.lte_share_est"] = v["lte.pf_ns_per_subframe.u4"] * float64(c.cells) * subframes / wallNS
	}
}

// runRepeat runs a workload's full measurement o.repeat times in fresh
// processes and prints each end-to-end metric's spread against its bound.
func runRepeat(o options, name string, stdout, stderr io.Writer) error {
	samples := map[string][]float64{}
	for i := 0; i < o.repeat; i++ {
		res, _, err := runChild(childArgs(options{seed: o.seed, seconds: o.seconds}, name), stderr)
		if err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("run %d: %d of %d reps failed", i+1, res.Failed, res.Attempted)
		}
		for k, mv := range res.Metrics {
			samples[k] = append(samples[k], mv.Value)
		}
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  %d runs of %gs\n  %-22s %-9s %14s %14s %14s %9s %9s %7s\n",
		name, o.seed, o.repeat, o.seconds, "metric", "unit", "min", "median", "max", "range/med", "iqr/med", "bound")
	for _, d := range endToEnd {
		s := samples[d.name]
		sort.Float64s(s)
		med := median(s)
		spread := (s[len(s)-1] - s[0]) / med
		iqr := (metrics.Percentile(s, 0.75) - metrics.Percentile(s, 0.25)) / med
		verdict := "ok"
		if spread > d.bound {
			verdict = "WIDE"
		}
		fmt.Fprintf(stdout, "  %-22s %-9s %14.6g %14.6g %14.6g %8.2f%% %8.2f%% %6.0f%%  %s\n",
			d.name, d.unit, s[0], med, s[len(s)-1], 100*spread, 100*iqr, 100*d.bound, verdict)
	}
	return nil
}

// runCheck is the quick self-test: short reps of every workload, untraced
// (determinism) and traced (the seams leave the trajectory alone), every invariant, every layer driver, and the trace writer.
func runCheck(o options, stdout, stderr io.Writer) int {
	code := 0
	fail := func(format string, a ...any) {
		fmt.Fprintf(stderr, "benchmark: check: "+format+"\n", a...)
		code = 1
	}
	tr := newTracer()
	for _, w := range workloads {
		t0 := time.Now()
		m, err := setUp(w, o.seed, true)
		if err != nil {
			fail("%s: %v", w.name, err)
			continue
		}
		m.reps, _ = m.timeReps(0, nil)
		m.timeReps(0, tr)
		for _, f := range m.failures {
			fail("%s: %s", w.name, f)
		}
		e2e := m.endToEndValues()
		for _, d := range endToEnd {
			if !(e2e[d.name] > 0) {
				fail("%s: %s = %g, want > 0", w.name, d.name, e2e[d.name])
			}
		}
		fmt.Fprintf(stdout, "ok  %-15s 7 short reps in %.2fs  goodput %.3f Mbit/s  freeze %.4f  fingerprint %016x\n",
			w.name, time.Since(t0).Seconds(), e2e["goodput_mbps"], m.simQuality()["freeze_ratio"], m.first.fingerprint)
	}

	drivers := map[string]float64{}
	if err := runDrivers(drivers); err != nil {
		fail("%v", err)
	}
	for _, d := range perLayer {
		if d.source == "D" && d.name != "host.calib_ms_p50" && !(drivers[d.name] > 0) {
			fail("driver metric %s = %g, want > 0", d.name, drivers[d.name])
		}
	}

	out := o.traceFile("check")
	if err := tr.writeTo(out); err != nil {
		fail("trace writer: %v", err)
	} else if st, err := os.Stat(out); err != nil || st.Size() == 0 {
		fail("trace file %s is missing or empty", out)
	}

	fmt.Fprintln(stdout, "\nmetrics this benchmark prints:")
	fmt.Fprintf(stdout, "  %-36s %-9s %-7s %s\n", "end-to-end", "unit", "better", "bound")
	for _, d := range endToEnd {
		fmt.Fprintf(stdout, "  %-36s %-9s %-7s %.0f%%\n", d.name, d.unit, d.better, 100*d.bound)
	}
	fmt.Fprintf(stdout, "  %-36s %-9s %-7s %-11s %-6s %-12s %s\n", "per-layer", "unit", "better", "layer", "source", "driver value", "should move")
	for _, d := range perLayer {
		val := ""
		if x, ok := drivers[d.name]; ok {
			val = strconv.FormatFloat(x, 'g', 6, 64)
		}
		fmt.Fprintf(stdout, "  %-36s %-9s %-7s %-11s %-6s %-12s %s\n", d.name, d.unit, d.better, d.layer, d.source, val, d.moves)
	}
	if code == 0 {
		fmt.Fprintln(stdout, "check passed")
	}
	return code
}

// --- small helpers -----------------------------------------------------------

func printTable(w io.Writer, title string, defs []metricDef, values map[string]float64, samples map[string]int) {
	fmt.Fprintf(w, "  %s\n", title)
	for _, d := range defs {
		n := ""
		if c, ok := samples[d.name]; ok {
			n = fmt.Sprintf("  n=%d", c)
		}
		fmt.Fprintf(w, "    %-36s %16.6f %-9s%s\n", d.name, values[d.name], d.unit, n)
	}
}

// present returns the defs that have a value.
func present(defs []metricDef, values map[string]float64) []metricDef {
	var out []metricDef
	for _, d := range defs {
		if _, ok := values[d.name]; ok {
			out = append(out, d)
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return metrics.Percentile(s, 0.5)
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
