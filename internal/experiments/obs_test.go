package experiments

import (
	"strings"
	"testing"
	"time"

	"poi360/internal/obs"
	"poi360/internal/session"
)

// TestObsReportBytesIdentical extends the engine's byte-identity contract
// to instrumentation: an experiment report must render byte-identically
// with observability enabled or disabled, at any worker count. Episode
// statistics leave through the Options.Obs side channel, never through the
// report.
func TestObsReportBytesIdentical(t *testing.T) {
	render := func(workers int, agg *obs.ExperimentAgg) string {
		o := Options{Quick: true, Users: 1, Repeats: 2, SessionTime: 30 * time.Second, Seed: 6,
			Workers: workers, Obs: agg}
		rep, err := FaultsTable.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, tab := range rep.Tables {
			sb.WriteString(tab.String())
		}
		return sb.String()
	}

	base := render(1, nil)
	if !strings.Contains(base, "%") {
		t.Fatalf("report suspiciously empty:\n%s", base)
	}
	for _, workers := range []int{1, 8} {
		agg := obs.NewExperimentAgg()
		if got := render(workers, agg); got != base {
			t.Fatalf("Workers=%d with obs: report differs from uninstrumented sequential run:\n--- base ---\n%s\n--- got ---\n%s",
				workers, base, got)
		}
		// FaultsTable runs one batch per (scenario, watchdog) row plus the
		// clean baseline: 1 + 2×len(scenarios).
		if agg.Rows() != 15 {
			t.Fatalf("Workers=%d: episode agg has %d rows, want 15", workers, agg.Rows())
		}
	}
}

// TestObsEpisodeTableDeterministic: the experiment-level episode table is
// itself byte-identical at any worker count (batches fold episodes in grid
// order).
func TestObsEpisodeTableDeterministic(t *testing.T) {
	capture := func(workers int) string {
		agg := obs.NewExperimentAgg()
		o := Options{Quick: true, Users: 2, Repeats: 2, SessionTime: 30 * time.Second, Seed: 3,
			Workers: workers, Obs: agg}
		base := session.Config{
			Network: session.Cellular, // zero Cell: defaulted inside Run
			Scheme:  session.SchemeAdaptive,
			RC:      session.RCFBCC,
		}
		if _, err := runBatch(o, base); err != nil {
			t.Fatal(err)
		}
		if agg.Rows() != 1 {
			t.Fatalf("Workers=%d: agg rows = %d, want 1", workers, agg.Rows())
		}
		return agg.Table().String()
	}
	seq, par := capture(1), capture(8)
	if seq != par {
		t.Fatalf("episode table differs between Workers=1 and Workers=8:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "POI360/FBCC/cellular") {
		t.Fatalf("batch label missing:\n%s", seq)
	}
}

// TestObsSkipsGCCBatches: instrumentation follows FBCC only — a GCC batch
// records no episode row (there is no Eq. 3 detector to trace).
func TestObsSkipsGCCBatches(t *testing.T) {
	agg := obs.NewExperimentAgg()
	o := Options{Quick: true, Users: 1, Repeats: 1, SessionTime: 20 * time.Second, Workers: 1, Obs: agg}
	if _, err := runBatch(o, parallelBase()); err != nil { // parallelBase is GCC
		t.Fatal(err)
	}
	if agg.Rows() != 0 {
		t.Fatalf("GCC batch recorded %d episode rows", agg.Rows())
	}
}

// TestBatchLabel pins the label grammar the episode table keys rows by.
func TestBatchLabel(t *testing.T) {
	cfg := parallelBase()
	cfg.RC = session.RCFBCC
	l := batchLabel(cfg)
	if !strings.Contains(l, "FBCC") || !strings.Contains(l, "cellular") || !strings.Contains(l, "rss=") {
		t.Fatalf("label %q missing scheme/rc/cell", l)
	}
	cfg.FBCCWatchdogReports = -1
	if l := batchLabel(cfg); !strings.HasSuffix(l, "-wd") {
		t.Fatalf("watchdog-off label %q", l)
	}
}

// freshMemo gives the test an empty batch memo and puts the process's
// memo back when it ends, so what earlier tests ran cannot turn this one's
// first run of a batch into a recall. No test in this package calls
// t.Parallel, so the swap races with nothing.
func freshMemo(t *testing.T) {
	t.Helper()
	batchMu.Lock()
	saved := batchMemo
	batchMemo = map[batchKey]*sessionAgg{}
	batchMu.Unlock()
	t.Cleanup(func() {
		batchMu.Lock()
		batchMemo = saved
		batchMu.Unlock()
	})
}

// TestObsEpisodesSurviveMemo: Figs. 15 and 16a share the FBCC batch through
// the memo, so the episode table of whichever experiment recalls it must
// carry the same row as the one that ran it. On an empty memo fig15 runs
// the batch and fig16a recalls it.
func TestObsEpisodesSurviveMemo(t *testing.T) {
	freshMemo(t)
	o := Options{Quick: true, Users: 2, Repeats: 1, SessionTime: 30 * time.Second, Seed: 41}
	tables := make([]string, 2)
	for i, e := range []Experiment{Fig15, Fig16a} {
		o.Obs = obs.NewExperimentAgg()
		if _, err := e.Run(o); err != nil {
			t.Fatal(err)
		}
		if o.Obs.Rows() != 1 {
			t.Fatalf("%s: episode agg has %d rows, want 1", e.ID, o.Obs.Rows())
		}
		tables[i] = o.Obs.Table().String()
	}
	if tables[0] != tables[1] {
		t.Fatalf("fig16a's episode table differs from fig15's:\n--- fig15 ---\n%s\n--- fig16a ---\n%s", tables[0], tables[1])
	}
	if !strings.Contains(tables[0], "POI360/FBCC/cellular") {
		t.Fatalf("batch label missing:\n%s", tables[0])
	}
}
