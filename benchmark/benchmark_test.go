package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"poi360/internal/session"
	"poi360/internal/simclock"
)

// spin burns a little wall time so spans have non-zero durations.
func spin() {
	for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
	}
}

// A three-layer callback chain: a scheduled callback of layer a calls into
// layer b twice, and b calls back into layer c. Each span's self time must be
// its duration minus its direct children, and the self times of the tree
// must add up to the root span.
func TestSpanSelfTimeArithmetic(t *testing.T) {
	tr := newTracer()
	clk := simclock.New()
	b, c := tr.op("b.call"), tr.op("c.deliver")
	traceSched(tr, clk, "a.event").Schedule(time.Millisecond, func() {
		spin()
		for i := 0; i < 2; i++ {
			tr.begin(b)
			spin()
			tr.begin(c)
			spin()
			tr.end()
			tr.end()
		}
	})
	clk.Run(time.Second)

	if len(tr.stack) != 0 {
		t.Fatalf("%d spans left open", len(tr.stack))
	}
	if got := tr.spans(); got != 5 {
		t.Fatalf("recorded %d spans, want 5", got)
	}
	children := map[int64]int64{}
	for _, s := range tr.raw {
		children[s.Parent] += s.DurNS
	}
	selfByOp := map[string]int64{}
	var root span
	for _, s := range tr.raw {
		selfByOp[s.Op] += s.DurNS - children[s.ID]
		if s.Parent == 0 {
			root = s
		}
	}
	var total int64
	for _, op := range []string{"a.event", "b.call", "c.deliver"} {
		st := tr.stat(op)
		if st.selfNS != selfByOp[op] {
			t.Errorf("%s: aggregated self %d ns, spans give %d ns", op, st.selfNS, selfByOp[op])
		}
		if st.selfNS <= 0 || st.selfNS > st.durNS {
			t.Errorf("%s: self %d ns outside (0, dur %d ns]", op, st.selfNS, st.durNS)
		}
		total += st.selfNS
	}
	if root.Op != "a.event" || total != root.DurNS {
		t.Errorf("self times sum to %d ns, root span %q lasted %d ns", total, root.Op, root.DurNS)
	}
	if got, want := tr.stat("c.deliver").count, int64(2); got != want {
		t.Errorf("c.deliver count %d, want %d", got, want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	prev := -1
	for _, ns := range []int64{0, 1, 7, 8, 9, 15, 16, 100, 1000, 123456, 1 << 40} {
		b := histBucket(ns)
		if b < prev {
			t.Errorf("bucket(%d) = %d is below the bucket of a smaller value", ns, b)
		}
		prev = b
		lo := histLower(b)
		if lo > ns || float64(ns-lo) > 0.13*float64(ns)+1 {
			t.Errorf("bucket %d of %d ns starts at %d ns", b, ns, lo)
		}
	}
}

// The seams must leave the simulation alone: a session assembled through the
// scheduler wrappers, the transport wrapper and the wrapped deliver callbacks
// ends deeply equal to session.Run's.
func TestSeamsKeepSessionTrajectory(t *testing.T) {
	cfg := sessionGridConfigs(7, true)[0]
	plain, err := session.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := runSessionTraced(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("traced session differs from session.Run: %d vs %d frames, freeze %g vs %g",
			plain.FramesDelivered, traced.FramesDelivered, plain.FreezeRatio(), traced.FreezeRatio())
	}
	if tr.stat("session.event").count == 0 || tr.stat("netsim.access.event").count == 0 {
		t.Error("the traced run recorded no callback spans")
	}
}

func TestConfigsArePureFunctionsOfSeed(t *testing.T) {
	gens := map[string]func(seed int64) any{
		"session-grid": func(s int64) any { return sessionGridConfigs(s, false) },
		"shared-cell":  func(s int64) any { return sharedCellConfigs(s, false) },
		"city":         func(s int64) any { return cityConfig(s, laneCity, false, 256, 1024, 1) },
		"live-wire":    func(s int64) any { return liveWireCalls(s, false) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(1), gen(1)) {
			t.Errorf("%s: the same seed gave different configs", name)
		}
		if reflect.DeepEqual(gen(1), gen(2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same configs", name)
		}
	}
	if got := len(sessionGridConfigs(1, false)); got != 24 {
		t.Errorf("session-grid has %d calls, want 24", got)
	}
	if got := len(liveWireCalls(1, false)); got != 8 {
		t.Errorf("live-wire has %d calls, want 8", got)
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func manifestMetrics(defs []metricDef, bounded bool) []manifestMetric {
	out := make([]manifestMetric, len(defs))
	for i, d := range defs {
		out[i] = manifestMetric{Name: d.name, Unit: d.unit, Better: d.better}
		if bounded {
			b := d.bound
			out[i].Bound = &b
		}
	}
	return out
}

// BENCHMARK.json and the binary must name the same workloads and metrics,
// with the same units, directions and bounds, and every name must fit the
// manifest's naming rules.
func TestCatalogMatchesManifest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	if want := manifestMetrics(endToEnd, true); !reflect.DeepEqual(mf.EndToEnd, want) {
		t.Errorf("end_to_end differs from the catalog:\n manifest %+v\n catalog  %+v", mf.EndToEnd, want)
	}
	if want := manifestMetrics(perLayer, false); !reflect.DeepEqual(mf.PerLayer, want) {
		t.Errorf("per_layer differs from the catalog (manifest %d metrics, catalog %d)", len(mf.PerLayer), len(want))
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the binary %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if mf.Workloads[i].Name != w.name || mf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q, binary %q (or their reasons differ)", i, mf.Workloads[i].Name, w.name)
		}
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the naming rule", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.name)
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q breaks the unit rule", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("%s: better is %q", d.name, d.better)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.name, d.bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the manifest's limits", len(workloads), len(endToEnd), len(perLayer))
	}
}

func metricNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
	}
	sort.Strings(names)
	return names
}

func resultNames(r *result) []string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// A run prints exactly the catalogued metrics: every end-to-end metric with
// tracing off, every per-layer metric in the traced run, all of them finite.
func TestRunPrintsEveryCataloguedMetric(t *testing.T) {
	w, _ := workloadByName("live-wire")
	m, err := setUp(w, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	m.reps, _ = m.timeReps(0, nil)
	e2e := m.result(endToEnd, m.endToEndValues())
	if got, want := resultNames(e2e), metricNames(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end run printed %v, catalog has %v", got, want)
	}
	for name, mv := range e2e.Metrics {
		if !(mv.Value > 0) {
			t.Errorf("end-to-end %s = %g, want > 0", name, mv.Value)
		}
	}

	m, err = setUp(w, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	traceOut := filepath.Join(t.TempDir(), "trace.jsonl")
	traced, err := runTraced(m, options{seed: 3, seconds: 0.01}, traceOut, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultNames(traced), metricNames(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("traced run printed %d metrics, catalog has %d", len(got), len(want))
	}
	if !traced.Correct || traced.Failed != 0 {
		t.Errorf("traced run: %d of %d reps failed: %v", traced.Failed, traced.Attempted, m.failures)
	}
	if _, err := json.Marshal(traced); err != nil {
		t.Errorf("traced result does not marshal (a metric is not finite): %v", err)
	}
	for _, name := range []string{"realnet.send_ns_per_pkt", "realnet.rx_ns_per_pkt", "realnet.report_ns", "simclock.dispatch_ns_per_event", "trace.spans", "roi_psnr_db"} {
		if !(traced.Metrics[name].Value > 0) {
			t.Errorf("live-wire %s = %g, want > 0", name, traced.Metrics[name].Value)
		}
	}
	if v := traced.Metrics["obs.events_per_sim_s"].Value; v != 0 {
		t.Errorf("live-wire obs.events_per_sim_s = %g, want 0 (no telemetry on this workload)", v)
	}
	if share := traced.Metrics["trace.attributed_share"].Value; share < 0.9 {
		t.Errorf("live-wire spans attribute %.3f of the traced rep wall, want ≥ 0.9", share)
	}
	if st, err := os.Stat(traceOut); err != nil || st.Size() == 0 {
		t.Errorf("trace file missing or empty: %v", err)
	}
}

// A call that moves no media must fail its rep, not report a fast, empty run.
func TestLiveWireCallHygiene(t *testing.T) {
	healthy := liveWireCalls(5, true)[0]
	dead := healthy
	dead.wire.outageEvery, dead.wire.outageFrom, dead.wire.outageLen = dead.duration, 0, dead.duration
	for _, tc := range []struct {
		name     string
		call     liveCall
		wantFail bool
	}{
		{"healthy wire", healthy, false},
		{"wire cut for the whole call", dead, true},
	} {
		r, err := runLiveCall(tc.call, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		o := newOutcome()
		h := newHasher()
		o.addLive(&h, tc.call, r)
		if failed := len(o.violations) > 0; failed != tc.wantFail {
			t.Errorf("%s: violations %v, want failure = %v", tc.name, o.violations, tc.wantFail)
		}
		if !tc.wantFail && (r.framesComplete == 0 || r.reportsAccepted == 0 || r.writeErrs != 0 || r.parseErrs != 0) {
			t.Errorf("%s: %d frames, %d reports, %d write errors, %d parse errors", tc.name, r.framesComplete, r.reportsAccepted, r.writeErrs, r.parseErrs)
		}
		if tc.wantFail && r.cutDrops == 0 {
			t.Errorf("%s: the cut wire dropped nothing", tc.name)
		}
	}
}

// city-par's rep checks itself against a Workers=1 run of the same config,
// and the two workloads derive the same city from a seed.
func TestCityParMatchesSequentialReference(t *testing.T) {
	seq, _ := workloadByName("city-seq")
	par, _ := workloadByName("city-par")
	var prints [2]uint64
	for i, w := range []workload{seq, par} {
		run, err := w.prepare(11, true)
		if err != nil {
			t.Fatal(err)
		}
		o, err := run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(o.violations) > 0 {
			t.Errorf("%s: %v", w.name, o.violations)
		}
		prints[i] = o.fingerprint
	}
	if prints[0] != prints[1] {
		t.Errorf("city-seq fingerprint %016x, city-par %016x", prints[0], prints[1])
	}
}

// A weak cell can hold more than two seconds of frames at the warm-up
// boundary; all of them are delivered inside the measured window without
// being counted as sent. Seeds 52 and 175 are calls where that backlog is
// over 60 frames: the conservation check must allow it, and nothing more
// than the frames captured before the boundary.
func TestFrameConservationAllowsWarmupBacklog(t *testing.T) {
	for _, seed := range []int64{52, 175} {
		run, err := prepareSessionGrid(seed, false)
		if err != nil {
			t.Fatal(err)
		}
		o, err := run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(o.violations) > 0 {
			t.Errorf("seed %d: %v", seed, o.violations)
		}
	}
	cfg := sessionGridConfigs(1, false)[0]
	cfg.StatsWarmup = 10 * time.Second
	cfg.Video.FPS = 30
	if got := frameSlack(cfg); got != 301 {
		t.Errorf("frameSlack = %d, want the 300 frames of a 10 s warm-up at 30 fps, plus one", got)
	}
}
